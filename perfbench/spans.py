"""Spans around sepsim's layers, recorded from the benchmark's side.

The tracer replaces public functions at the attribute of each module that
calls them (``sepsim.cli.solve_stationary`` and
``sepsim.reversibility.solve_stationary`` are separate entries), so a span
is recorded wherever a layer is entered.  Spans are kept in memory; a
layer's self time is its spans' duration minus that of their direct
children.  A function that a later version of sepsim no longer has is
not wrapped: a warning naming it goes to stderr, and the metrics that
read it are 0 and say nothing about that layer.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass, field

_PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
_MIB = 1024.0 * 1024.0
# Record-building calls between two resident-memory samples.
_RSS_SAMPLE_EVERY = 256


def resident_mib() -> float:
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * _PAGE_BYTES / _MIB


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int
    info: dict = field(default_factory=dict)
    end: float = 0.0
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


def _lookup(module, attr: str):
    inner = getattr(module, attr, None)
    if inner is None:
        print(f"[perfbench] {module.__name__}.{attr} is gone: its layer is not traced "
              "and its metrics read 0", file=sys.stderr)
    return inner


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self.records_built = 0
        self.rss_peak_in_call = 0.0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str, **info) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.op, info))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, error: bool) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.error = error
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, describe=None, finish=None) -> None:
        """Record a span named ``name`` around ``module.attr``.

        ``describe(*args, **kwargs)`` returns the span's info dict when the
        call starts; ``finish(info)`` may add to it when the call ends.
        """
        inner = _lookup(module, attr)
        if inner is None:
            return

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            index = self.open(name, **(describe(*args, **kwargs) if describe else {}))
            error = True
            try:
                result = inner(*args, **kwargs)
                error = False
                return result
            finally:
                self.close(index, error)
                if finish:
                    finish(self.spans[index].info)

        setattr(module, attr, traced)
        self._patched.append((module, attr, inner))

    def count_records(self, module, attr: str) -> None:
        """Count calls of ``module.attr`` and sample resident memory."""
        inner = _lookup(module, attr)
        if inner is None:
            return

        @functools.wraps(inner)
        def counted(*args, **kwargs):
            self.records_built += 1
            if self.records_built % _RSS_SAMPLE_EVERY == 0:
                self.rss_peak_in_call = max(self.rss_peak_in_call, resident_mib())
            return inner(*args, **kwargs)

        setattr(module, attr, counted)
        self._patched.append((module, attr, inner))

    def restore(self) -> None:
        for module, attr, inner in reversed(self._patched):
            setattr(module, attr, inner)
        self._patched.clear()

    def self_time_per_span(self) -> list[float]:
        """Each span's duration minus that of its direct children."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own


def install(tracer: Tracer) -> None:
    """Wrap every layer the per-layer metrics read."""
    import sepsim.cli as cli
    import sepsim.exact as exact
    import sepsim.reversibility as reversibility
    import sepsim.simulate as simulate

    cutoff = getattr(exact, "DENSE_SOLVE_CUTOFF", 4096)

    def solve_info(gen, *args, **kwargs):
        return {"path": "dense" if gen.dim <= cutoff else "power"}

    def replica_info(params, config, *args, **kwargs):
        tracer.rss_peak_in_call = resident_mib()
        return {"lattice": f"N{params.n_sites}K{params.n_types}", "events": config.max_events}

    def replica_finish(info):
        info["rss_peak"] = max(tracer.rss_peak_in_call, resident_mib())

    for module in (cli, reversibility):
        tracer.wrap(module, "build_generator", "exact.build_generator")
        tracer.wrap(module, "solve_stationary", "exact.solve", solve_info)
    # solve_stationary calls exact's own is_irreducible; those spans are
    # children of the solve and count here, not in the solve's self time.
    for module in (cli, exact):
        tracer.wrap(module, "is_irreducible", "exact.is_irreducible")
    tracer.wrap(cli, "run_replica", "simulate.run_replica", replica_info, replica_finish)
    tracer.wrap(cli, "merge_replicas", "simulate.merge_replicas")
    tracer.wrap(cli, "estimate_from_stats", "analytics.estimate_from_stats")
    for name in ("kolmogorov_cycle_residual", "detailed_balance_residual",
                 "reversed_generator", "uniformity_check"):
        tracer.wrap(cli, name, f"reversibility.{name}")
    tracer.count_records(simulate, "enabled_events")
