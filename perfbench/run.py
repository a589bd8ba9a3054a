#!/usr/bin/env python3
"""Benchmark for sepsim: run one workload for a fixed time, check every
output, and print the metrics as the last line of stdout.

    python3 perfbench/run.py --workload kmc-small --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; sepsim is imported from ``src/``.
Each round calls ``sepsim.cli.main`` once per operation of the workload
(see ``workloads.py``) and checks what it wrote against ``checks.py``.
Rounds repeat until ``--seconds`` have passed; the last one is finished.

Times are calibrated to the host's speed (``hostspeed.py``): each is
divided by the time of a fixed reference taken just before and after it,
and multiplied by the reference's nominal time.  ``--trace 0`` prints the
end-to-end metrics: ``setup_s`` (median over nine fresh processes, spread
over the run, of the time from launch to ready-to-run, which covers the
interpreter, importing sepsim with numpy and scipy, and making the
inputs), ``wall_s`` (a round's time: each operation's median calibrated
time over the rounds, summed) and ``peak_rss_mib`` (this process's peak resident
memory).
``--trace 1`` spends half the time untraced and half with spans around
sepsim's layers, and prints the per-layer metrics.
"""

import os

# One BLAS and OpenMP thread, set before numpy loads, so that a workload
# process keeps to one core however many the machine has (README: Threads).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_PROBES = 9

SPEC = ROOT / "BENCHMARK.json"
LATTICES = ("N5K2", "N30K3", "N100K2")


class SetupError(RuntimeError):
    """The program or the benchmark's inputs could not be set up."""


def metric_units(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics in
    ``BENCHMARK.json``, in the order it lists them."""
    try:
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {SPEC}: {exc}") from exc
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def import_sepsim() -> float:
    """Import sepsim from this checkout; return the seconds it took."""
    if not (SRC / "sepsim" / "__init__.py").is_file():
        raise SetupError(f"no sepsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import sepsim.cli
    elapsed = time.perf_counter() - start
    if Path(sepsim.__file__).resolve().parent != SRC / "sepsim":
        raise SetupError(f"imported sepsim from {sepsim.__file__}, not from {SRC}")
    return elapsed


def write_inputs(ops, run_dir: Path) -> list[tuple[Path, Path]]:
    run_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, op in enumerate(ops):
        config = run_dir / f"{index}.config.json"
        config.write_text(json.dumps(op.config), encoding="utf-8")
        paths.append((config, run_dir / f"{index}.out.json"))
    return paths


class SetupProbes:
    """Times fresh processes that do this run's set-up and print ``ready``.

    One probe runs before each round and the rest after the last, so that
    ``setup_s``, the median, samples the host over the whole run as
    ``wall_s`` does, not over a few seconds at its start.  Each probe is
    calibrated by a set-up reference process run just before and after it
    (``hostspeed.calibrated_setup``)."""

    def __init__(self, workload: str, seed: int) -> None:
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                     "--seed", str(seed), "--probe"]
        self.times: list[float] = []

    def take(self) -> None:
        """Run one probe if fewer than ``SETUP_PROBES`` have run."""
        import hostspeed

        if len(self.times) < SETUP_PROBES:
            try:
                self.times.append(hostspeed.calibrated_setup(self.argv, ROOT))
            except RuntimeError as exc:
                raise SetupError(f"set-up probe failed: {exc}") from exc

    def median(self) -> float:
        while len(self.times) < SETUP_PROBES:
            self.take()
        return statistics.median(self.times)


def run_op(op, config: Path, output: Path, tracer=None):
    """Run one operation; return (seconds, output bytes, document, problems)."""
    import sepsim.cli

    output.unlink(missing_ok=True)
    argv = [op.command, "--config", str(config), "--output", str(output), *op.flags]
    stderr = io.StringIO()
    raised = None
    if tracer is not None:
        tracer.op = op.command
        span = tracer.open("cli.main")
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            rc = sepsim.cli.main(argv)
    except Exception as exc:  # an uncaught error is a failed operation, not a failed run
        rc, raised = None, exc
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.close(span, raised is not None)

    doc, size = None, 0
    if raised is not None:
        return elapsed, size, doc, [f"raised {raised!r}"]
    try:
        if output.is_file():
            size = output.stat().st_size
            doc = json.loads(output.read_text(encoding="utf-8"))
        problems = op.check(doc, rc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"malformed output: {exc!r}"]
    if problems and stderr.getvalue():
        problems.append(stderr.getvalue().strip().replace("\n", " ")[:300])
    return elapsed, size, doc, problems


class Rounds:
    """Accumulates rounds: their times, output sizes and failures."""

    def __init__(self, ops, paths, references: tuple[str, ...]) -> None:
        import hostspeed

        self.ops, self.paths = ops, paths
        self.count = 0
        self.speed = hostspeed.Calibrated(references)
        self.raw_times: list[list[float]] = [[] for _ in ops]
        self.op_times: list[list[float]] = [[] for _ in ops]
        self.output_bytes: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.reported: set[str] = set()
        self.deviations: list[tuple[float, float]] = []

    def run(self, deadline: float, tracer=None, probes=None) -> None:
        """Run whole rounds until ``deadline`` (at least one), with one of
        the set-up ``probes`` before each."""
        while True:
            if probes is not None:
                probes.take()
            size = 0
            for op, (config, output), raw, times in zip(self.ops, self.paths, self.raw_times,
                                                        self.op_times):
                self.speed.mark_if_due()
                elapsed, nbytes, doc, problems = run_op(op, config, output, tracer)
                raw.append(elapsed)
                self.speed.add(times, elapsed)
                size += nbytes
                self.attempted += 1
                if problems:
                    self.record_failure(op, problems)
                elif tracer is not None and op.command in ("exact", "report"):
                    self.deviations.append(solve_deviation(doc, op.config))
            self.speed.mark()
            self.count += 1
            self.output_bytes.append(size)
            if time.perf_counter() >= deadline:
                return

    def wall(self, first: int = 0) -> float:
        """A round's calibrated time: each operation's median calibrated
        time over rounds ``first`` onwards, summed."""
        return sum(statistics.median(times[first:]) for times in self.op_times)

    def record_failure(self, op, problems: list[str]) -> None:
        self.failed += 1
        if op.known_fault is None:
            self.unexpected += 1
        if op.name not in self.reported:
            self.reported.add(op.name)
            why = f"known fault: {op.known_fault}" if op.known_fault else "UNEXPECTED"
            print(f"[perfbench] {op.name} failed ({why}): {'; '.join(problems)}", file=sys.stderr)


def solve_deviation(doc: dict, model: dict) -> tuple[float, float]:
    """Largest absolute and relative gap of p_solved from the product form."""
    import numpy as np

    import checks

    section = doc if doc["command"] == "exact" else doc["exact"]
    solved = np.asarray(section["distribution"]["p_solved"], dtype=float)
    closed = checks.product_form(model)
    gap = np.abs(solved - closed)
    return float(gap.max()), float((gap / closed).max())


def layer_metrics(tracer, rounds: Rounds, traced_from: int, import_s: float,
                  baseline_mib: float) -> dict[str, float]:
    """Per-round layer figures from the traced rounds.

    ``baseline_mib`` is resident memory before the first operation: memory
    a replica frees stays with the process, so growth is measured from
    there rather than from the start of each replica."""
    n_rounds = rounds.count - traced_from
    self_time = tracer.self_time_per_span()
    totals: dict[str, float] = {}
    for span, own in zip(tracer.spans, self_time):
        key = span.name if span.name != "exact.solve" else f"exact.solve_{span.info['path']}"
        totals[key] = totals.get(key, 0.0) + own

    def per_round(name: str) -> float:
        return totals.get(name, 0.0) / n_rounds

    solves = [s for s in tracer.spans if s.name == "exact.solve"]
    verify_ops = sum(1 for s in tracer.spans if s.name == "cli.main" and s.op == "verify")
    replicas = [s for s in tracer.spans if s.name == "simulate.run_replica"]
    events = sum(s.info["events"] for s in replicas)
    metrics = {
        "setup.import_s": import_s,
        "cli.self_s": per_round("cli.main"),
        "cli.output_bytes": statistics.mean(rounds.output_bytes[traced_from:]),
        "exact.build_generator_s": per_round("exact.build_generator"),
        "exact.is_irreducible_s": per_round("exact.is_irreducible"),
        "exact.solve_dense_s": per_round("exact.solve_dense"),
        "exact.solve_power_s": per_round("exact.solve_power"),
        "exact.solve_calls": len(solves) / n_rounds,
        "exact.solves_per_verify": (
            sum(1 for s in solves if s.op == "verify") / verify_ops if verify_ops else 0.0
        ),
        "exact.solve_errors": sum(1 for s in solves if s.error) / n_rounds,
        "exact.max_abs_dev": max((d[0] for d in rounds.deviations), default=0.0),
        "exact.max_rel_dev": max((d[1] for d in rounds.deviations), default=0.0),
        "simulate.run_replica_s": per_round("simulate.run_replica"),
        "simulate.records_built_per_event": tracer.records_built / events if events else 0.0,
        "simulate.rss_growth_mib": max(
            (s.info["rss_peak"] - baseline_mib for s in replicas), default=0.0
        ),
        "simulate.merge_replicas_s": per_round("simulate.merge_replicas"),
        "analytics.estimate_from_stats_s": per_round("analytics.estimate_from_stats"),
    }
    for lattice in LATTICES:
        spans = [s for s in replicas if s.info["lattice"] == lattice]
        n_events = sum(s.info["events"] for s in spans)
        seconds = sum(s.duration for s in spans)
        metrics[f"simulate.us_per_event.{lattice}"] = 1e6 * seconds / n_events if n_events else 0.0
    for name in ("kolmogorov_cycle_residual", "detailed_balance_residual",
                 "reversed_generator", "uniformity_check"):
        metrics[f"reversibility.{name}_s"] = per_round(f"reversibility.{name}")
    return metrics


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="only do the set-up, print 'ready' and exit (used to time set-up)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    args = parse_args(argv)
    import spans
    import workloads

    try:
        units = metric_units("per_layer" if args.trace else "end_to_end")
        import_s = import_sepsim()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    ops = workloads.make_ops(args.workload, args.seed)
    run_dir = OUT / f"run-{os.getpid()}"
    try:
        paths = write_inputs(ops, run_dir)
        if args.probe:
            print("ready", flush=True)
            return 0
        rounds = Rounds(ops, paths, workloads.REFERENCES[args.workload])
        start = time.perf_counter()
        if not args.trace:
            probes = SetupProbes(args.workload, args.seed)
            rounds.run(start + args.seconds, probes=probes)
            metrics = {
                "setup_s": probes.median(),
                "wall_s": rounds.wall(),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        else:
            baseline_mib = spans.resident_mib()
            rounds.run(start + args.seconds / 2)
            untraced = rounds.wall()
            traced_from = rounds.count
            tracer = spans.Tracer()
            spans.install(tracer)
            try:
                rounds.run(start + args.seconds, tracer)
            finally:
                tracer.restore()
            metrics = layer_metrics(tracer, rounds, traced_from, import_s, baseline_mib)
            metrics["trace.overhead_s"] = rounds.wall(traced_from) - untraced
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    slowest = sorted(zip(rounds.raw_times, ops), key=lambda pair: -statistics.median(pair[0]))
    print(f"[perfbench] host: the reference took {rounds.speed.host_factor():.3f} times its "
          f"nominal time (median of {len(rounds.speed.refs)})", file=sys.stderr)
    print("[perfbench] median raw seconds per operation: " + ", ".join(
        f"{op.name} {statistics.median(times):.4f}" for times, op in slowest[:8]), file=sys.stderr)
    if set(metrics) != set(units):
        print(f"perfbench: measured {sorted(metrics)}, BENCHMARK.json names {sorted(units)}",
              file=sys.stderr)
        return 2
    if not all(math.isfinite(v) for v in metrics.values()):
        print(f"perfbench: non-finite metric in {metrics}", file=sys.stderr)
        return 2
    result = {
        "correct": rounds.unexpected == 0,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
