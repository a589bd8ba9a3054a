"""Command-line interface: exact, simulate, verify, and report commands.

Configuration lives in a flat JSON object whose keys are the fields of
:class:`~sepsim.model.ModelParams` (``n_sites``, ``n_types``, ``alpha``,
``beta``, ``delta``), the fields of
:class:`~sepsim.simulate.SimConfig` (``seed``, ``max_events``,
``warmup_fraction``, ``replicas``), and ``output``, ``format`` and
``tolerances`` (an object keyed by the names in
``DEFAULT_TOLERANCES``).  Defaults come from the dataclasses (the last
three from :class:`RunConfig`), except that ``seed`` defaults to 0 here;
command-line flags override file values.
Reports are emitted as JSON (default) or as the fixed CSV tables, always
UTF-8, with no timestamps so identical inputs produce byte-identical output.

Each command builds its document once from the result objects and ends in
:func:`_json` (arrays to lists, NaN and infinities to ``null``).  The
``flux`` and ``sojourn`` keys are the fields of
:class:`~sepsim.analytics.FluxReport` and
:class:`~sepsim.analytics.SojournReport`, plus ``type`` and (sojourns)
``insufficient_data``; ``report``'s ``exact`` and ``simulation`` sections
come from the builders of the ``exact`` and ``simulate`` documents.  The
CSV tables are the columns listed in ``_CSV_TABLES``, plus ``verify``'s
``checks`` table.

JSON documents and error payloads are written by :func:`_dumps`, whose
bytes are ``json.dumps(doc, indent=2, sort_keys=True)``'s: dicts are
written in Python, float lists and tables of float rows by joins of each
float's repr, and other lists of scalars by the standard library's C
encoder.

Exit codes: 0 success, 1 a verification check failed, 2 execution error
(invalid configuration, state cap exceeded, solver failure).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from json.encoder import encode_basestring_ascii
from numbers import Real
from typing import Any, Callable

import numpy as np

from . import __version__
from .model import ModelParams, state_space_size
from .exact import (
    CapExceededError,
    Generator,
    SolveError,
    _REDUCIBLE_MESSAGE,
    build_generator,
    certify_stationary,
    is_irreducible_model,
    marginals_from_distribution,
    normalization_constant,
    product_form,
    site_marginal,
    solve_stationary,
)
from .simulate import RNG_SCHEME, SimConfig, SimStats, merge_replicas, run_replicas
from .analytics import estimate_from_stats
from .reversibility import (
    NotStationaryError,
    detailed_balance_residual,
    kolmogorov_cycle_residual,
    perturb_hop_rate,
    reversed_rates_residual,
)

__all__ = [
    "DEFAULT_TOLERANCES",
    "RunConfig",
    "parse_config",
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
    "delta_independence": 1e-10,
    "kolmogorov_cycles": 1e-10,
}

_MODEL_KEYS = tuple(f.name for f in fields(ModelParams))
_SIM_KEYS = tuple(f.name for f in fields(SimConfig))
_OTHER_KEYS = ("output", "format", "tolerances")

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
        if self.output is not None and not isinstance(self.output, str):
            raise ValueError(f"output must be a path string, got {self.output!r}")
        if self.format not in ("json", "csv"):
            raise ValueError(f"format must be 'json' or 'csv', got {self.format!r}")
        if not isinstance(self.tolerances, dict):
            raise ValueError(f"tolerances must be a mapping of name to value, got {self.tolerances!r}")
        merged = dict(DEFAULT_TOLERANCES)
        for name, value in self.tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                raise ValueError(f"unknown tolerance {name!r}")
            # An infinite tolerance would make a check that cannot fail.
            if isinstance(value, bool) or not isinstance(value, Real) or not 0.0 < value < math.inf:
                raise ValueError(f"tolerance {name} must be a finite number > 0, got {value!r}")
            merged[name] = float(value)
        object.__setattr__(self, "tolerances", merged)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunConfig":
        if not isinstance(data, dict):
            raise ValueError(f"configuration must be a JSON object, got {type(data).__name__}")
        unknown = set(data).difference(_MODEL_KEYS, _SIM_KEYS, _OTHER_KEYS)
        if unknown:
            raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
        for required in _MODEL_KEYS:
            if required not in data:
                raise ValueError(f"configuration is missing required key {required!r}")

        def given(keys) -> dict[str, Any]:
            return {name: data[name] for name in keys if name in data}

        return cls(
            model=ModelParams(**given(_MODEL_KEYS)),
            sim=SimConfig(**{"seed": 0, **given(_SIM_KEYS)}),  # the CLI's one own default
            **given(_OTHER_KEYS),
        )


def parse_config(text: str) -> RunConfig:
    return RunConfig.from_dict(json.loads(text))


def load_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as handle:
        return parse_config(handle.read())


# Item types that the standard library's C encoder formats exactly as its
# pure-Python encoder (the one ``indent`` selects) does.
_C_SCALARS = frozenset((str, int, float, bool, type(None)))
# Item types that _json passes through unchanged.
_JSON_ATOMS = _C_SCALARS - {float}


@functools.cache
def _scalar_list_encoder(item_separator: str):
    return json.JSONEncoder(separators=(item_separator, ": ")).encode


def _float_text(value: float) -> str:
    if math.isfinite(value):
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


def _float_repr(floats: list[float]) -> Callable[[float], str] | None:
    """The function that gives each item's JSON text, for a list of
    ``float``s, or None if one is NaN or infinite.  Where values repeat and
    none is a zero, each distinct value's repr is made once and looked up:
    product-form vectors and the closed-form marginal table repeat few
    values.  (0.0 and -0.0 are one set member with two texts.)"""
    if not all(map(math.isfinite, distinct := set(floats))):
        return None
    if len(distinct) == len(floats) or 0.0 in distinct:
        return float.__repr__
    return dict(zip(distinct, map(float.__repr__, distinct))).__getitem__


def _write_json(value: Any, parts: list[str], newline: str) -> None:
    """Append the text of ``value`` to ``parts``; ``newline`` is a line
    break plus the indentation of the line that ``value`` starts on.

    A list or tuple is written by the first of these that fits it:

    - only finite ``float``s: one join of their texts (:func:`_float_repr`);
    - only scalars: the standard library's C encoder;
    - only non-empty lists of finite ``float``s (the per-site marginal
      tables): one join per row and one for the table;
    - anything else, such as a table with an empty row, a NaN or an ``int``,
      or a list of tuple rows: item by item.
    """
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        parts.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        parts.append(_float_text(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        separator = "," + inner
        kinds = set(map(type, value))
        if kinds == {float} and (text := _float_repr(value)):
            parts += "[", inner, separator.join(map(text, value)), newline, "]"
        elif kinds <= _C_SCALARS:
            parts += "[", inner, _scalar_list_encoder(separator)(value)[1:-1], newline, "]"
        elif (kinds == {list} and all(value)
              and set(map(type, floats := list(itertools.chain.from_iterable(value)))) == {float}
              and (text := _float_repr(floats))):
            row_inner = inner + "  "
            row_separator = "," + row_inner
            row_end = inner + "]"
            rows = ["[" + row_inner + row_separator.join(map(text, row)) + row_end for row in value]
            parts += "[", inner, separator.join(rows), newline, "]"
        else:
            for index, item in enumerate(value):
                parts.append(separator if index else "[" + inner)
                _write_json(item, parts, inner)
            parts += newline, "]"
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        for index, (key, item) in enumerate(sorted(value.items())):
            parts += ("," if index else "{") + inner, encode_basestring_ascii(key), ": "
            _write_json(item, parts, inner)
        parts += newline, "}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _dumps(doc: Any) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte,
    for documents whose keys are strings.  With ``indent`` set the standard
    library formats every value in Python; here float lists and float
    tables are joins of ``float.__repr__`` texts and other scalar lists go
    through its C encoder (see :func:`_write_json`)."""
    parts: list[str] = []
    _write_json(doc, parts, "\n")
    parts.append("\n")
    return "".join(parts)


def _json(value: Any) -> Any:
    """A copy of ``value`` made of JSON values: arrays and tuples become
    lists, numpy scalars Python numbers, and NaN and infinities ``None``."""
    if isinstance(value, float):
        return float(value) if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        if set(map(type, value)) <= _JSON_ATOMS:
            return list(value)
        return [_json(item) for item in value]
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "biu" or (value.dtype.kind == "f" and np.isfinite(value).all()):
            return value.tolist()
        return _json(value.tolist())
    if isinstance(value, np.generic):
        return _json(value.item())
    return value


def _closed_marginals(params: ModelParams) -> np.ndarray:
    return np.tile(site_marginal(params), (params.n_sites, 1))


def _provenance(config: RunConfig) -> dict[str, Any]:
    return {
        "artifact": {"name": "sepsim", "version": __version__},
        "model": asdict(config.model),
        "seed": config.sim.seed,
        "tolerances": config.tolerances,
    }


def _model_generator(params: ModelParams) -> Generator:
    """The model's generator (``exact``, ``report`` and ``verify``).  The
    irreducibility lemma refuses a reducible model before anything is
    built, so no command has an irreducibility entry, which could never
    fail."""
    if not is_irreducible_model(params):
        raise ValueError(_REDUCIBLE_MESSAGE)
    return build_generator(params)


def _exact_section(params: ModelParams) -> dict[str, Any]:
    """The numerical solve against the closed form (``exact`` and ``report``)."""
    gen = _model_generator(params)
    solved = solve_stationary(gen)
    closed = product_form(params)
    # Site 1 is the most significant digit of the canonical index, so the
    # product's order is the index order.
    values = [str(v) for v in range(params.n_types + 1)]
    return {
        "state_space_size": gen.dim,
        "normalization_constant": normalization_constant(params),
        "max_abs_deviation": np.abs(solved - closed).max(),
        "distribution": {
            "state_index": np.arange(gen.dim),
            "state": list(map(",".join, itertools.product(values, repeat=params.n_sites))),
            "p_closed_form": closed,
            "p_solved": solved,
        },
        "site_marginals": {
            "closed_form": _closed_marginals(params),
            "from_solved": marginals_from_distribution(solved, params),
        },
    }


def cmd_exact(config: RunConfig) -> dict[str, Any]:
    """Solve the model exactly and compare against the closed form."""
    return _json({
        **_provenance(config),
        "command": "exact",
        **_exact_section(config.model),
    })


def _run_merged(config: RunConfig, *, track_joint: bool = False) -> SimStats:
    track = track_joint and state_space_size(config.model) <= _JOINT_TRACK_LIMIT
    return merge_replicas(run_replicas(config.model, config.sim, track_state_occupancy=track))


def _simulation_section(config: RunConfig, merged: SimStats) -> dict[str, Any]:
    """Merged replicas' estimates against theory (``simulate`` and ``report``)."""
    params = config.model
    flux, sojourn, marginals = estimate_from_stats(merged, params)
    types = list(range(1, params.n_types + 1))
    return {
        "sim": {
            "seed": config.sim.seed,
            "max_events": config.sim.max_events,
            "warmup_fraction": config.sim.warmup_fraction,
            "warmup_events": config.sim.warmup_events,
            "replicas": config.sim.replicas,
            "rng": RNG_SCHEME,
        },
        "event_count": merged.event_count,
        "total_time": merged.total_time,
        "counts": {
            "arrivals_by_type": merged.arrivals_by_type,
            "departures_by_type": merged.departures_by_type,
            "start_counts_by_type": merged.start_counts_by_type,
            "end_counts_by_type": merged.end_counts_by_type,
            "completed_sojourns_by_type": [len(v) for v in merged.completed_sojourns],
        },
        "flux": {"type": types, **vars(flux)},
        "sojourn": {"type": types, **vars(sojourn), "insufficient_data": sojourn.insufficient_data},
        "marginals": {"empirical": marginals, "closed_form": _closed_marginals(params)},
    }


def cmd_simulate(config: RunConfig) -> dict[str, Any]:
    """Run all replicas, merge them, and report the empirical estimates.

    The exit status of this command reflects execution success only; the
    z-scores in the report are informational.
    """
    return _json({
        **_provenance(config),
        "command": "simulate",
        **_simulation_section(config, _run_merged(config)),
    })


def _check(name: str, residual: float | None, tolerance: float, *, note: str | None = None) -> dict[str, Any]:
    """One check entry; a residual of None (the check could not run) fails."""
    status = "fail" if residual is None or residual > tolerance else "pass"
    entry: dict[str, Any] = {"name": name, "tolerance": tolerance, "status": status,
                             "residual": residual}
    if note:
        entry["note"] = note
    return entry


def cmd_verify(config: RunConfig, *, negative_control: bool = False) -> dict[str, Any]:
    """Run the full battery of stationary-structure checks on one model.

    ``negative_control`` scales one directed hop rate by two before the
    generator-based checks, demonstrating that they detect a broken
    symmetry (the certificates of the clean model's variants are
    unaffected).

    ``oracle_equivalence`` gates the largest absolute deviation of the
    solve from the product form and names the largest relative one in its
    note.

    ``delta_independence`` is a certificate, not a solve
    (:func:`~sepsim.exact.certify_stationary`): each variant of the clean
    model with other hop rates must be irreducible by the rate lemma of
    :func:`~sepsim.exact.is_irreducible_model`, and the residual is the
    product form's largest global-balance residual under the variant's
    rates, in rate × probability units, taken on the probability tensor
    without building the variant's generator.  So the model's generator is
    built once and solved once; under ``negative_control`` only its
    perturbed copy is solved.  The solved generator's tree potential is
    computed once and read by both its solve and ``kolmogorov_cycles``.
    """
    params = config.model
    tol = config.tolerances

    gen = _model_generator(params)
    if negative_control:
        gen = perturb_hop_rate(gen)
    solved = solve_stationary(gen)
    closed = product_form(params)

    checks = [_check("oracle_equivalence", np.abs(solved - closed).max(), tol["oracle_equivalence"],
                     note=f"max relative deviation {np.abs(solved / closed - 1.0).max():.3e}")]

    checks.append(_check("detailed_balance", detailed_balance_residual(gen, closed),
                         tol["detailed_balance"]))

    reversed_note = ("detailed balance holds for every alpha and beta; "
                     "the paper proves reversibility for alpha == beta")
    try:
        reversed_dev = reversed_rates_residual(gen, closed)
    except NotStationaryError as exc:
        reversed_dev, reversed_note = None, str(exc)
    checks.append(_check("reversed_rates_general", reversed_dev, tol["reversed_rates"], note=reversed_note))

    delta_dev = max(certify_stationary(v, closed) for v in _delta_variants(params))
    checks.append(_check("delta_independence", delta_dev, tol["delta_independence"]))

    checks.append(
        _check(
            "kolmogorov_cycles",
            kolmogorov_cycle_residual(gen),
            tol["kolmogorov_cycles"],
            note="every cycle (spanning-tree potential)",
        )
    )

    return _json({
        **_provenance(config),
        "command": "verify",
        "negative_control": negative_control,
        "checks": checks,
        "passed": all(entry["status"] == "pass" for entry in checks),
    })


def _delta_variants(params: ModelParams) -> list[ModelParams]:
    variants = [
        replace(params, delta=tuple(3.7 * d + 0.9 for d in params.delta)),
        replace(params, delta=tuple(0.25 * d + 0.1 for d in params.delta)),
    ]
    if params.n_sites == 2:
        # Zero hop rates freeze interior occupancy on longer lattices (the
        # chain becomes reducible), so the zero-rate variants have a unique
        # stationary law only where every site is a boundary site.
        variants.append(replace(params, delta=(0.0,) * params.n_types))
        variants.append(replace(params, delta=(0.0,) + params.delta[1:]))
    return variants


def cmd_report(config: RunConfig) -> dict[str, Any]:
    """Exact solve plus simulation plus their comparison in one document."""
    exact = _exact_section(config.model)
    merged = _run_merged(config, track_joint=True)
    simulation = _simulation_section(config, merged)
    marginals = simulation["marginals"]
    joint_tv = None
    if merged.state_occupancy_time is not None:
        empirical_joint = merged.state_occupancy_time / merged.total_time
        joint_tv = 0.5 * np.abs(empirical_joint - exact["distribution"]["p_closed_form"]).sum()
    return _json({
        **_provenance(config),
        "command": "report",
        "exact": exact,
        "simulation": simulation,
        "comparison": {
            "marginal_max_abs_diff": np.abs(marginals["empirical"] - marginals["closed_form"]).max(),
            "flux_zscore": simulation["flux"]["zscore"],
            "sojourn_zscore": simulation["sojourn"]["zscore"],
            "joint_tv_distance": joint_tv,
        },
    })


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


# Each CSV table projects one block of a document section: (table, section,
# block, columns), a column being (CSV header, JSON key of the block's
# per-row list).  The site and state columns of a site-marginal matrix
# carry no key: the matrix gives one row per cell.
_CSV_TABLES = (
    ("distribution", "exact", "distribution", (
        ("state_index", "state_index"), ("state", "state"),
        ("p_closed_form", "p_closed_form"), ("p_solved", "p_solved"))),
    ("marginals", "exact", "site_marginals", (
        ("site", None), ("state", None), ("probability", "from_solved"))),
    ("flux", "simulation", "flux", (
        ("type", "type"), ("j_closed", "closed_form"), ("j_boundary", "boundary_form"),
        ("j_empirical", "empirical"), ("stderr", "stderr"), ("zscore", "zscore"))),
    ("sojourn", "simulation", "sojourn", (
        ("type", "type"), ("u_closed", "closed_form"), ("u_littles_law", "littles_law"),
        ("u_empirical", "empirical_mean"), ("stderr", "stderr"), ("sample_count", "sample_count"))),
    ("marginals_empirical", "simulation", "marginals", (
        ("site", None), ("state", None), ("probability", "empirical"))),
)
# The report section that each single command's document is.
_REPORT_SECTION = {"exact": "exact", "simulate": "simulation"}


def _csv_tables(doc: dict[str, Any]) -> list[tuple[str, list[str], list[list[Any]]]]:
    command = doc["command"]
    if command == "verify":
        return [(
            "checks",
            ["name", "status", "residual", "tolerance", "note"],
            [
                [c["name"], c["status"], c.get("residual"), c["tolerance"], c.get("note", "")]
                for c in doc["checks"]
            ],
        )]
    sections = doc if command == "report" else {_REPORT_SECTION[command]: doc}
    tables: list[tuple[str, list[str], list[list[Any]]]] = []
    for table, section, block_key, columns in _CSV_TABLES:
        if section in sections:
            block = sections[section][block_key]
            keys = [key for _, key in columns]
            if keys[0] is None:
                rows = [[site0 + 1, state, p] for site0, row in enumerate(block[keys[-1]])
                        for state, p in enumerate(row)]
            else:
                rows = [list(row) for row in zip(*(block[key] for key in keys))]
            tables.append((table, [header for header, _ in columns], rows))
    return tables


def _render_table(header: list[str], rows: list[list[Any]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_csv_cell(v) for v in row] for row in rows)
    return out.getvalue()


def _emit(doc: dict[str, Any], config: RunConfig) -> None:
    """Write the document to stdout, or to ``output`` (one file per CSV table)."""
    if config.format == "json":
        texts = {config.output: _dumps(doc)}
    elif config.output:
        base = config.output[:-4] if config.output.endswith(".csv") else config.output
        texts = {f"{base}.{name}.csv": _render_table(header, rows)
                 for name, header, rows in _csv_tables(doc)}
    else:
        texts = {None: "\n".join(f"# {name}\n{_render_table(header, rows)}"
                                 for name, header, rows in _csv_tables(doc))}
    for path, text in texts.items():
        if path:
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process."""
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
    flags = {"seed": args.seed, "max_events": args.events, "replicas": args.replicas}
    return replace(
        config,
        sim=replace(config.sim, **{name: v for name, v in flags.items() if v is not None}),
        output=args.output if args.output is not None else config.output,
        format=args.format if args.format is not None else config.format,
    )


def _emit_error(exc: Exception) -> None:
    payload: dict[str, Any] = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    if isinstance(exc, CapExceededError):
        payload["error"]["requested"] = exc.requested
        payload["error"]["cap"] = exc.cap
    sys.stderr.write(_dumps(payload))


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
