"""Command-line interface: exact, simulate, verify, and report commands.

Configuration lives in a flat JSON file (model keys ``n_sites``,
``n_types``, ``alpha``, ``beta``, ``delta``, ``boundary_hops`` and run keys
``seed``, ``max_events``, ``warmup_fraction``, ``replicas``); command-line
flags override file values.  Reports are emitted as JSON (default) or as
the fixed CSV tables, always UTF-8, with no timestamps so identical inputs
produce byte-identical output.

Exit codes: 0 success, 1 a verification check failed, 2 execution error
(invalid configuration, state cap exceeded, solver failure).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from . import __version__
from .model import ModelParams, decode, state_space_size
from .exact import (
    CapExceededError,
    SolveError,
    build_generator,
    is_irreducible,
    marginals_from_distribution,
    normalization_constant,
    product_form,
    site_marginal,
    solve_stationary,
)
from .simulate import RNG_SCHEME, SimConfig, SimStats, merge_replicas, run_replica
from .analytics import (
    arrival_rate_boundary_form,
    arrival_rate_closed_form,
    estimate_from_stats,
    sojourn_closed_form,
    sojourn_littles_law,
)
from .reversibility import (
    NotStationaryError,
    detailed_balance_residual,
    kolmogorov_cycle_residual,
    perturb_hop_rate,
    reversed_generator,
    uniformity_check,
)

__all__ = [
    "DEFAULT_TOLERANCES",
    "RunConfig",
    "parse_config",
    "emit_config",
    "load_config",
    "cmd_exact",
    "cmd_simulate",
    "cmd_verify",
    "cmd_report",
    "main",
]

DEFAULT_TOLERANCES = {
    "oracle_equivalence": 1e-10,
    "detailed_balance": 1e-12,
    "reversed_rates": 1e-12,
    "flux_identity": 1e-12,
    "littles_law_identity": 1e-12,
    "uniformity": 1e-10,
    "delta_independence": 1e-10,
    "boundary_hop_independence": 1e-10,
    "kolmogorov_cycles": 1e-10,
}

_MODEL_KEYS = {"n_sites", "n_types", "alpha", "beta", "delta", "boundary_hops"}
_SIM_KEYS = {"seed", "max_events", "warmup_fraction", "replicas", "record_trajectory"}
_OTHER_KEYS = {"output", "format", "tolerances"}

# Joint-distribution comparison in `report` tracks per-state occupancy,
# which needs a dense vector; skip it above this size.
_JOINT_TRACK_LIMIT = 4096


@dataclass(frozen=True)
class RunConfig:
    """Full description of one CLI run."""

    model: ModelParams
    sim: SimConfig
    output: str | None = None
    format: str = "json"
    tolerances: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.format not in ("json", "csv"):
            raise ValueError(f"format must be 'json' or 'csv', got {self.format!r}")
        merged = dict(DEFAULT_TOLERANCES)
        for name, value in self.tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                raise ValueError(f"unknown tolerance {name!r}")
            value = float(value)
            if not value > 0.0:
                raise ValueError(f"tolerance {name} must be > 0, got {value}")
            merged[name] = value
        object.__setattr__(self, "tolerances", merged)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunConfig":
        unknown = set(data) - _MODEL_KEYS - _SIM_KEYS - _OTHER_KEYS
        if unknown:
            raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
        for required in ("n_sites", "n_types", "alpha", "beta", "delta"):
            if required not in data:
                raise ValueError(f"configuration is missing required key {required!r}")
        model = ModelParams(
            n_sites=data["n_sites"],
            n_types=data["n_types"],
            alpha=data["alpha"],
            beta=data["beta"],
            delta=data["delta"],
            boundary_hops=data.get("boundary_hops", True),
        )
        sim = SimConfig(
            seed=data.get("seed", 0),
            max_events=data.get("max_events", 100_000),
            warmup_fraction=data.get("warmup_fraction", 0.2),
            replicas=data.get("replicas", 1),
            record_trajectory=data.get("record_trajectory", False),
        )
        return cls(
            model=model,
            sim=sim,
            output=data.get("output"),
            format=data.get("format", "json"),
            tolerances=data.get("tolerances", {}),
        )

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "n_sites": self.model.n_sites,
            "n_types": self.model.n_types,
            "alpha": list(self.model.alpha),
            "beta": list(self.model.beta),
            "delta": list(self.model.delta),
            "boundary_hops": self.model.boundary_hops,
            "seed": self.sim.seed,
            "max_events": self.sim.max_events,
            "warmup_fraction": self.sim.warmup_fraction,
            "replicas": self.sim.replicas,
            "record_trajectory": self.sim.record_trajectory,
            "format": self.format,
            "tolerances": dict(self.tolerances),
        }
        if self.output is not None:
            doc["output"] = self.output
        return doc


def parse_config(text: str) -> RunConfig:
    return RunConfig.from_dict(json.loads(text))


def emit_config(config: RunConfig) -> str:
    return json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n"


def load_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as handle:
        return parse_config(handle.read())


def _finite(x: float) -> float | None:
    """JSON-safe number: NaN and infinities become null."""
    x = float(x)
    return x if math.isfinite(x) else None


def _float_list(values) -> list[float | None]:
    return [_finite(v) for v in np.asarray(values, dtype=np.float64).ravel().tolist()]


def _matrix(values) -> list[list[float | None]]:
    return [[_finite(v) for v in row] for row in np.asarray(values, dtype=np.float64).tolist()]


def _state_string(index: int, params: ModelParams) -> str:
    return ",".join(str(v) for v in decode(index, params))


def _provenance(config: RunConfig) -> dict[str, Any]:
    return {
        "artifact": {"name": "sepsim", "version": __version__},
        "model": {
            "n_sites": config.model.n_sites,
            "n_types": config.model.n_types,
            "alpha": list(config.model.alpha),
            "beta": list(config.model.beta),
            "delta": list(config.model.delta),
            "boundary_hops": config.model.boundary_hops,
        },
        "seed": config.sim.seed,
        "tolerances": dict(config.tolerances),
    }


def cmd_exact(config: RunConfig) -> dict[str, Any]:
    """Solve the model exactly and compare against the closed form."""
    params = config.model
    gen = build_generator(params)
    solved = solve_stationary(gen)
    closed = product_form(params)
    deviation = float(np.abs(solved - closed).max())
    marginal_closed = site_marginal(params, 1)
    marginals_solved = marginals_from_distribution(solved, params)
    doc = _provenance(config)
    doc.update(
        {
            "command": "exact",
            "state_space_size": gen.dim,
            "irreducible": bool(is_irreducible(gen)),
            "normalization_constant": _finite(normalization_constant(params)),
            "max_abs_deviation": _finite(deviation),
            "distribution": {
                "state_index": list(range(gen.dim)),
                "state": [_state_string(i, params) for i in range(gen.dim)],
                "p_closed_form": _float_list(closed),
                "p_solved": _float_list(solved),
            },
            "site_marginals": {
                "closed_form": _matrix(np.tile(marginal_closed, (params.n_sites, 1))),
                "from_solved": _matrix(marginals_solved),
            },
        }
    )
    return doc


def _run_merged(config: RunConfig, *, track_joint: bool = False) -> SimStats:
    track = track_joint and state_space_size(config.model) <= _JOINT_TRACK_LIMIT
    replicas = [
        run_replica(config.model, config.sim, index, track_state_occupancy=track)
        for index in range(config.sim.replicas)
    ]
    return merge_replicas(replicas)


def cmd_simulate(config: RunConfig, *, _merged: SimStats | None = None) -> dict[str, Any]:
    """Run all replicas, merge them, and report the empirical estimates.

    The exit status of this command reflects execution success only; the
    z-scores in the report are informational.
    """
    params = config.model
    merged = _run_merged(config) if _merged is None else _merged
    flux, sojourn, marginals = estimate_from_stats(merged, params)
    marginal_closed = site_marginal(params, 1)
    doc = _provenance(config)
    doc.update(
        {
            "command": "simulate",
            "sim": {
                "seed": config.sim.seed,
                "max_events": config.sim.max_events,
                "warmup_fraction": config.sim.warmup_fraction,
                "warmup_events": config.sim.warmup_events,
                "replicas": config.sim.replicas,
                "rng": dict(RNG_SCHEME),
            },
            "event_count": merged.event_count,
            "total_time": _finite(merged.total_time),
            "counts": {
                "arrivals_by_type": merged.arrivals_by_type.tolist(),
                "departures_by_type": merged.departures_by_type.tolist(),
                "start_counts_by_type": merged.start_counts_by_type.tolist(),
                "end_counts_by_type": merged.end_counts_by_type.tolist(),
                "completed_sojourns_by_type": [len(v) for v in merged.completed_sojourns],
            },
            "flux": {
                "type": list(range(1, params.n_types + 1)),
                "closed_form": _float_list(flux.closed_form),
                "boundary_form": _float_list(flux.boundary_form),
                "empirical": _float_list(flux.empirical),
                "stderr": _float_list(flux.stderr),
                "zscore": _float_list(flux.zscore),
            },
            "sojourn": {
                "type": list(range(1, params.n_types + 1)),
                "closed_form": _float_list(sojourn.closed_form),
                "littles_law": _float_list(sojourn.littles_law),
                "empirical_mean": _float_list(sojourn.empirical_mean),
                "stderr": _float_list(sojourn.stderr),
                "sample_count": sojourn.sample_count.tolist(),
                "zscore": _float_list(sojourn.zscore),
                "insufficient_data": sojourn.insufficient_data.tolist(),
            },
            "marginals": {
                "empirical": _matrix(marginals),
                "closed_form": _matrix(np.tile(marginal_closed, (params.n_sites, 1))),
            },
        }
    )
    return doc


def _check(name: str, residual: float | None, tolerance: float, *, note: str | None = None,
           skipped: bool = False, failed: bool | None = None) -> dict[str, Any]:
    entry: dict[str, Any] = {"name": name, "tolerance": tolerance}
    if skipped:
        entry["status"] = "skipped"
        entry["residual"] = None
    else:
        bad = failed if failed is not None else (residual is None or residual > tolerance)
        entry["status"] = "fail" if bad else "pass"
        entry["residual"] = _finite(residual) if residual is not None else None
    if note:
        entry["note"] = note
    return entry


def cmd_verify(config: RunConfig, *, negative_control: bool = False) -> dict[str, Any]:
    """Run the full battery of stationary-structure checks on one model.

    ``negative_control`` scales one directed hop rate by two before the
    generator-based checks, demonstrating that they detect a broken
    symmetry (the closed-form identity checks are unaffected).
    """
    params = config.model
    tol = config.tolerances
    checks: list[dict[str, Any]] = []

    gen = build_generator(params)
    clean_solved = solve_stationary(gen)
    if negative_control:
        gen = perturb_hop_rate(gen)
    closed = product_form(params)
    solved = solve_stationary(gen) if negative_control else clean_solved

    checks.append(
        _check(
            "irreducible",
            0.0 if is_irreducible(gen) else 1.0,
            0.5,
            note="0 when the transition graph is strongly connected",
        )
    )
    checks.append(
        _check(
            "oracle_equivalence",
            float(np.abs(solved - closed).max()),
            tol["oracle_equivalence"],
        )
    )

    balance = detailed_balance_residual(gen, closed)
    checks.append(_check("detailed_balance", balance.max_abs_residual, tol["detailed_balance"]))

    rate_symmetric = all(a == b for a, b in zip(params.alpha, params.beta))
    symmetry_note = (
        "arrival/departure rate symmetry satisfied (alpha == beta)"
        if rate_symmetric
        else "alpha != beta"
    )
    try:
        reversed_gen = reversed_generator(gen, closed)
        reversed_dev = float(np.abs(reversed_gen.rates - gen.rates).max())
        checks.append(_check("reversed_rates_general", reversed_dev, tol["reversed_rates"]))
        checks.append(
            _check(
                "reversed_rates_rate_symmetric",
                reversed_dev,
                tol["reversed_rates"],
                note=symmetry_note,
                skipped=not rate_symmetric,
            )
        )
    except NotStationaryError as exc:
        checks.append(
            _check("reversed_rates_general", None, tol["reversed_rates"], note=str(exc), failed=True)
        )
        checks.append(
            _check(
                "reversed_rates_rate_symmetric",
                None,
                tol["reversed_rates"],
                note=symmetry_note if rate_symmetric else str(exc),
                skipped=not rate_symmetric,
                failed=rate_symmetric,
            )
        )

    flux_dev = max(
        abs(arrival_rate_closed_form(params, k) - arrival_rate_boundary_form(params, k))
        for k in range(1, params.n_types + 1)
    )
    checks.append(_check("flux_identity", flux_dev, tol["flux_identity"]))
    little_dev = max(
        abs(sojourn_littles_law(params, k) - sojourn_closed_form(params, k))
        for k in range(1, params.n_types + 1)
    )
    checks.append(_check("littles_law_identity", little_dev, tol["littles_law_identity"]))

    if rate_symmetric:
        checks.append(
            _check(
                "uniformity",
                uniformity_check(params, clean_solved),
                tol["uniformity"],
                note=symmetry_note,
            )
        )
    else:
        checks.append(_check("uniformity", None, tol["uniformity"], note=symmetry_note, skipped=True))

    delta_dev = 0.0
    for variant in _delta_variants(params):
        variant_solved = solve_stationary(build_generator(variant))
        delta_dev = max(delta_dev, float(np.abs(variant_solved - clean_solved).max()))
    checks.append(_check("delta_independence", delta_dev, tol["delta_independence"]))

    flipped = replace(params, boundary_hops=not params.boundary_hops)
    flipped_solved = solve_stationary(build_generator(flipped))
    checks.append(
        _check(
            "boundary_hop_independence",
            float(np.abs(flipped_solved - clean_solved).max()),
            tol["boundary_hop_independence"],
        )
    )

    checks.append(
        _check(
            "kolmogorov_cycles",
            kolmogorov_cycle_residual(gen),
            tol["kolmogorov_cycles"],
            note="every cycle (spanning-tree potential)",
        )
    )

    doc = _provenance(config)
    doc.update(
        {
            "command": "verify",
            "negative_control": negative_control,
            "checks": checks,
            "passed": all(entry["status"] != "fail" for entry in checks),
        }
    )
    return doc


def _delta_variants(params: ModelParams) -> list[ModelParams]:
    variants = [
        replace(params, delta=tuple(3.7 * d + 0.9 for d in params.delta)),
        replace(params, delta=tuple(0.25 * d + 0.1 for d in params.delta)),
    ]
    if params.n_sites == 2:
        # Zero hop rates freeze interior occupancy on longer lattices (the
        # chain becomes reducible), so the zero-rate variants are solvable
        # only where every site is a boundary site.
        variants.append(replace(params, delta=(0.0,) * params.n_types))
        variants.append(replace(params, delta=(0.0,) + params.delta[1:]))
    return variants


def cmd_report(config: RunConfig) -> dict[str, Any]:
    """Exact solve plus simulation plus their comparison in one document."""
    params = config.model
    exact_doc = cmd_exact(config)
    merged = _run_merged(config, track_joint=True)
    sim_doc = cmd_simulate(config, _merged=merged)

    closed_marginal = np.tile(site_marginal(params, 1), (params.n_sites, 1))
    empirical_marginals = merged.site_occupancy_time / merged.total_time
    comparison: dict[str, Any] = {
        "marginal_max_abs_diff": _finite(np.abs(empirical_marginals - closed_marginal).max()),
        "flux_zscore": sim_doc["flux"]["zscore"],
        "sojourn_zscore": sim_doc["sojourn"]["zscore"],
    }
    if merged.state_occupancy_time is not None:
        empirical_joint = merged.state_occupancy_time / merged.total_time
        tv = 0.5 * float(np.abs(empirical_joint - product_form(params)).sum())
        comparison["joint_tv_distance"] = _finite(tv)
    else:
        comparison["joint_tv_distance"] = None

    doc = _provenance(config)
    doc.update(
        {
            "command": "report",
            "exact": {k: exact_doc[k] for k in (
                "state_space_size",
                "normalization_constant",
                "max_abs_deviation",
                "distribution",
                "site_marginals",
            )},
            "simulation": {k: sim_doc[k] for k in (
                "sim",
                "event_count",
                "total_time",
                "counts",
                "flux",
                "sojourn",
                "marginals",
            )},
            "comparison": comparison,
        }
    )
    return doc


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _csv_tables(doc: dict[str, Any]) -> list[tuple[str, list[str], list[list[Any]]]]:
    tables: list[tuple[str, list[str], list[list[Any]]]] = []
    command = doc["command"]
    if command in ("exact", "report"):
        section = doc if command == "exact" else doc["exact"]
        dist = section["distribution"]
        tables.append(
            (
                "distribution",
                ["state_index", "state", "p_closed_form", "p_solved"],
                [
                    [dist["state_index"][i], dist["state"][i], dist["p_closed_form"][i], dist["p_solved"][i]]
                    for i in range(len(dist["state_index"]))
                ],
            )
        )
        rows = []
        for site0, row in enumerate(section["site_marginals"]["from_solved"]):
            for value, probability in enumerate(row):
                rows.append([site0 + 1, value, probability])
        tables.append(("marginals", ["site", "state", "probability"], rows))
    if command in ("simulate", "report"):
        section = doc if command == "simulate" else doc["simulation"]
        flux = section["flux"]
        tables.append(
            (
                "flux",
                ["type", "j_closed", "j_boundary", "j_empirical", "stderr", "zscore"],
                [
                    [
                        flux["type"][k0],
                        flux["closed_form"][k0],
                        flux["boundary_form"][k0],
                        flux["empirical"][k0],
                        flux["stderr"][k0],
                        flux["zscore"][k0],
                    ]
                    for k0 in range(len(flux["type"]))
                ],
            )
        )
        sojourn = section["sojourn"]
        tables.append(
            (
                "sojourn",
                ["type", "u_closed", "u_littles_law", "u_empirical", "stderr", "sample_count"],
                [
                    [
                        sojourn["type"][k0],
                        sojourn["closed_form"][k0],
                        sojourn["littles_law"][k0],
                        sojourn["empirical_mean"][k0],
                        sojourn["stderr"][k0],
                        sojourn["sample_count"][k0],
                    ]
                    for k0 in range(len(sojourn["type"]))
                ],
            )
        )
        rows = []
        for site0, row in enumerate(section["marginals"]["empirical"]):
            for value, probability in enumerate(row):
                rows.append([site0 + 1, value, probability])
        tables.append(("marginals_empirical", ["site", "state", "probability"], rows))
    if command == "verify":
        tables.append(
            (
                "checks",
                ["name", "status", "residual", "tolerance", "note"],
                [
                    [c["name"], c["status"], c.get("residual"), c["tolerance"], c.get("note", "")]
                    for c in doc["checks"]
                ],
            )
        )
    return tables


def _render_table(header: list[str], rows: list[list[Any]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(v) for v in row])
    return out.getvalue()


def _emit(doc: dict[str, Any], config: RunConfig) -> None:
    if config.format == "json":
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        if config.output:
            with open(config.output, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        return
    tables = _csv_tables(doc)
    if config.output:
        base = config.output[:-4] if config.output.endswith(".csv") else config.output
        for name, header, rows in tables:
            with open(f"{base}.{name}.csv", "w", encoding="utf-8", newline="\n") as handle:
                handle.write(_render_table(header, rows))
    else:
        chunks = [f"# {name}\n{_render_table(header, rows)}" for name, header, rows in tables]
        sys.stdout.write("\n".join(chunks))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepsim",
        description="Exact analysis and event-driven simulation of a multi-type "
        "symmetric exclusion lattice with open boundaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("exact", "solve the stationary distribution and compare with the closed form"),
        ("simulate", "run seeded replicas and report empirical estimates"),
        ("verify", "run the stationary-structure check battery"),
        ("report", "exact + simulate + comparison in one document"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON configuration file")
        cmd.add_argument("--output", help="write the report here instead of stdout")
        cmd.add_argument("--format", choices=("json", "csv"), help="report format")
        cmd.add_argument("--seed", type=int, help="override the configured seed")
        cmd.add_argument("--events", type=int, help="override max_events")
        cmd.add_argument("--replicas", type=int, help="override the replica count")
        if name == "verify":
            cmd.add_argument(
                "--negative-control",
                action="store_true",
                help="scale one directed hop rate by 2 first; the balance checks must fail",
            )
    return parser


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    sim = config.sim
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.events is not None:
        updates["max_events"] = args.events
    if args.replicas is not None:
        updates["replicas"] = args.replicas
    if updates:
        sim = replace(sim, **updates)
    return replace(
        config,
        sim=sim,
        output=args.output if args.output is not None else config.output,
        format=args.format if args.format is not None else config.format,
    )


def _emit_error(exc: Exception) -> None:
    payload: dict[str, Any] = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    if isinstance(exc, CapExceededError):
        payload["error"]["requested"] = exc.requested
        payload["error"]["cap"] = exc.cap
    sys.stderr.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _apply_overrides(load_config(args.config), args)
        if args.command == "exact":
            doc = cmd_exact(config)
        elif args.command == "simulate":
            doc = cmd_simulate(config)
        elif args.command == "verify":
            doc = cmd_verify(config, negative_control=args.negative_control)
        else:
            doc = cmd_report(config)
        _emit(doc, config)
    except (ValueError, CapExceededError, SolveError, OSError, json.JSONDecodeError) as exc:
        _emit_error(exc)
        return 2
    if args.command == "verify" and not doc["passed"]:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
