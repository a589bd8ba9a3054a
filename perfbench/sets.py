#!/usr/bin/env python3
"""Collect, summarise and compare sets of benchmark runs.

    python3 perfbench/sets.py collect A --seeds 1-10          # every workload, untraced
    python3 perfbench/sets.py collect T --seeds 1 --trace 1   # one traced run each
    python3 perfbench/sets.py summary A
    python3 perfbench/sets.py compare A B

``collect`` runs ``run.py`` once per workload and seed, one process at a
time, with the run length from ``BENCHMARK.json``, and appends each result
to ``perfbench/out/sets/<name>.jsonl``.  ``summary`` prints, per workload
and metric, the run count, the median, the quartiles and the spread (the
distance between the quartiles as a share of the median).  ``compare``
does that for both sets and checks them against ``BENCHMARK.json``: every
spread, ``setup_s``'s too, within the metric's bound, the second median
no worse than the first by more than the bound, and the same share of
failed operations in both sets.  It exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
from fractions import Fraction
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETS = BENCH_DIR / "out" / "sets"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def collect(name: str, seeds: list[int], workloads: list[str], trace: int) -> None:
    spec = load_spec()
    SETS.mkdir(parents=True, exist_ok=True)
    with open(SETS / f"{name}.jsonl", "a", encoding="utf-8") as sink:
        for workload in workloads:
            for seed in seeds:
                argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
                        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
                start = time.perf_counter()
                done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
                elapsed = time.perf_counter() - start
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    sys.stderr.write(done.stderr)
                    raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
                result = json.loads(lines[-1])
                record = {"workload": workload, "seed": seed, "trace": trace,
                          "elapsed_s": elapsed, "result": result}
                sink.write(json.dumps(record) + "\n")
                sink.flush()
                values = {k: float(f"{v['value']:.4g}") for k, v in result["metrics"].items()}
                print(f"{workload} seed {seed} ({elapsed:.1f} s): correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} {values}", flush=True)


def load_set(name: str) -> list[dict]:
    path = SETS / f"{name}.jsonl"
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def summarise(records: list[dict]) -> dict:
    """{workload: {"runs", "failed_share", "correct", "metrics": {metric: stats}}}"""
    out: dict = {}
    for record in records:
        entry = out.setdefault(record["workload"], {"runs": 0, "failed": set(), "correct": True,
                                                     "values": {}})
        result = record["result"]
        entry["runs"] += 1
        entry["failed"].add((result["failed"], result["attempted"]))
        entry["correct"] &= result["correct"]
        for metric, value in result["metrics"].items():
            entry["values"].setdefault(metric, []).append(value["value"])
    for entry in out.values():
        shares = {Fraction(f, a) for f, a in entry.pop("failed")}
        entry["failed_share"] = sorted(shares)
        entry["metrics"] = {}
        for metric, values in entry.pop("values").items():
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            entry["metrics"][metric] = {
                "n": len(values), "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else float("nan"),
            }
    return out


def print_summary(name: str, summary: dict) -> None:
    for workload, entry in sorted(summary.items()):
        shares = ", ".join(f"{s} ({float(s):.4f})" for s in entry["failed_share"])
        print(f"[{name}] {workload}: {entry['runs']} runs, correct={entry['correct']}, "
              f"failed share {shares}")
        for metric, s in sorted(entry["metrics"].items()):
            print(f"    {metric:44s} n={s['n']:2d} median={s['median']:.6g} "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={s['spread']:.4f}")


def compare(first: dict, second: dict, spec: dict) -> list[str]:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    problems = []
    print(f"{'workload':14s} {'metric':14s} {'median A':>11s} {'median B':>11s} "
          f"{'change':>8s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}  verdict")
    for workload in sorted(set(first) | set(second)):
        a, b = first.get(workload), second.get(workload)
        if a is None or b is None:
            problems.append(f"{workload}: missing from one set")
            continue
        if a["failed_share"] != b["failed_share"] or len(a["failed_share"]) != 1:
            problems.append(f"{workload}: failed share {a['failed_share']} vs {b['failed_share']}")
        if not (a["correct"] and b["correct"]):
            problems.append(f"{workload}: a run reported correct=false")
        for metric, info in bounds.items():
            sa, sb = a["metrics"][metric], b["metrics"][metric]
            sign = 1.0 if info["better"] == "lower" else -1.0
            change = sign * (sb["median"] - sa["median"]) / sa["median"]
            verdict = []
            if change > info["bound"]:
                verdict.append("worse")
            verdict += [f"spread {side}" for side, s in (("A", sa), ("B", sb))
                        if not s["spread"] <= info["bound"]]
            problems += [f"{workload} {metric}: {v}" for v in verdict]
            print(f"{workload:14s} {metric:14s} {sa['median']:11.5g} {sb['median']:11.5g} "
                  f"{change:+8.2%} {sa['spread']:9.4f} {sb['spread']:9.4f} {info['bound']:6.2f}  "
                  f"{', '.join(verdict) or 'ok'}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("collect")
    p.add_argument("name")
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,7")
    p.add_argument("--workloads", help="comma-separated; default every workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("summary")
    p.add_argument("name")
    p = sub.add_parser("compare")
    p.add_argument("first")
    p.add_argument("second")
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.mode == "collect":
        names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
        collect(args.name, parse_seeds(args.seeds), names, args.trace)
        return 0
    if args.mode == "summary":
        print_summary(args.name, summarise(load_set(args.name)))
        return 0
    first, second = summarise(load_set(args.first)), summarise(load_set(args.second))
    print_summary(args.first, first)
    print_summary(args.second, second)
    problems = compare(first, second, spec)
    for problem in problems:
        print(f"FAIL {problem}")
    print("compare: " + ("FAIL" if problems else "OK, every metric within its bound"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
