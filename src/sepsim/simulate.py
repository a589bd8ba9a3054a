"""Event-driven continuous-time simulation of the lattice dynamics.

The sampler is the direct method: draw an exponential holding time from
the total enabled rate, then pick one event with probability proportional
to its rate.  Both draws are plain uniform doubles consumed in a fixed
order (holding time first), which makes replicas bit-reproducible and lets
:func:`run_replica` produce exactly the same trajectory as repeated calls
to :func:`sample_next_event`.

:func:`run_replica` is one event loop over a lattice array.  It draws the
uniforms in blocks and keeps each visited state's step records (cumulative
rates, successor index) in a cache of at most ``_RECORD_CACHE_LIMIT``
records; a state missing from it is built from the lattice array in O(N),
with successor indices derived arithmetically, and a state reached once
the cache is full is used without being stored, so memory stays bounded.

Replica streams come from a counter-based generator: replica ``i`` of a
run seeded with ``s`` uses ``numpy`` Philox keyed by
``SeedSequence(entropy=s, spawn_key=(i,))``.  Exponentials are drawn by
inversion (``-log1p(-u) / rate``), never by ziggurat, so the uniform
stream alone determines the trajectory.

Statistics accumulate only after a warm-up prefix of
``floor(warmup_fraction * max_events)`` events; the measurement clock runs
from the time of the last warm-up event to the time of the final event.
Sojourn times are recorded only for particles that both arrive and depart
inside that window (censoring note: particles still present at the end are
dropped, a bias that vanishes for long runs).
"""

from __future__ import annotations

import copy
from bisect import bisect_right
from dataclasses import dataclass, fields
from math import fsum, log1p
from numbers import Real
from typing import Sequence

import numpy as np

from .model import (
    Event,
    EventKind,
    LatticeState,
    ModelParams,
    enabled_events,
    state_space_size,
)

__all__ = [
    "RNG_SCHEME",
    "STATE_TRACKING_LIMIT",
    "SimConfig",
    "TaggedParticle",
    "SimStats",
    "replica_rng",
    "sample_next_event",
    "run_replica",
    "merge_replicas",
]

# Pinned generator and stream derivation, recorded in report metadata.
RNG_SCHEME = {
    "bit_generator": "Philox",
    "stream": "SeedSequence(entropy=seed, spawn_key=(replica_index,))",
    "draws_per_event": "two uniform doubles: inverse-transform holding time, then cumulative-rate event pick",
}

# Per-state-index occupancy tracking allocates a dense vector; refuse
# beyond this size.
STATE_TRACKING_LIMIT = 1 << 20

# Events per block of uniforms drawn at once (two uniforms per event).
_EVENT_BLOCK = 1 << 15


@dataclass(frozen=True)
class SimConfig:
    """Run configuration shared by all replicas of one simulation."""

    seed: int
    max_events: int = 100_000
    warmup_fraction: float = 0.2
    replicas: int = 1
    record_trajectory: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if not isinstance(self.max_events, int) or self.max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {self.max_events!r}")
        if not isinstance(self.warmup_fraction, Real) or not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError(f"warmup_fraction must be in [0, 1), got {self.warmup_fraction!r}")
        if not isinstance(self.replicas, int) or self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas!r}")
        object.__setattr__(self, "record_trajectory", bool(self.record_trajectory))

    @property
    def warmup_events(self) -> int:
        return int(self.warmup_fraction * self.max_events)


@dataclass
class TaggedParticle:
    """One physical particle followed from arrival to departure.

    The identity sticks to the particle through hops.  ``departure_time``
    stays ``None`` for particles still on the lattice when the run ends.
    """

    uid: int
    ptype: int
    arrival_time: float
    departure_time: float | None = None


@dataclass(eq=False)
class SimStats:
    """Time-weighted observables of one replica (or a merge of replicas).

    ``site_occupancy_time[i, v]`` is the measured time site ``i+1`` spent
    in occupancy value ``v``; each row sums to ``total_time``.  Arrival
    and departure counts cover only the measurement window, and
    ``start_counts_by_type`` / ``end_counts_by_type`` hold the particles
    present at the window edges so that conservation
    (arrivals - departures == end - start) is checkable per type.
    ``event_count`` is the number of events executed including warm-up.
    """

    n_sites: int
    n_types: int
    total_time: float
    site_occupancy_time: np.ndarray
    arrivals_by_type: np.ndarray
    departures_by_type: np.ndarray
    start_counts_by_type: np.ndarray
    end_counts_by_type: np.ndarray
    completed_sojourns: list[list[float]]
    event_count: int
    state_occupancy_time: np.ndarray | None = None
    trajectory: list[tuple[float, Event]] | None = None
    tagged_particles: list[TaggedParticle] | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimStats):
            return NotImplemented
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if isinstance(mine, np.ndarray) or isinstance(theirs, np.ndarray):
                if not np.array_equal(mine, theirs):
                    return False
            elif mine != theirs:
                return False
        return True


def replica_rng(seed: int, replica_index: int) -> np.random.Generator:
    """Independent, reproducible stream for one replica (see ``RNG_SCHEME``)."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed!r}")
    if replica_index < 0:
        raise ValueError(f"replica_index must be >= 0, got {replica_index!r}")
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(replica_index,))
    return np.random.Generator(np.random.Philox(sequence))


def sample_next_event(
    state: LatticeState, params: ModelParams, rng: np.random.Generator
) -> tuple[float, Event]:
    """One step of the direct method from ``state``.

    Consumes exactly two uniform doubles from ``rng``: the holding time is
    ``-log1p(-u1) / total_rate`` and the event is chosen by scanning the
    cumulative rates with ``u2 * total_rate``.  Deterministic given the
    stream position.
    """
    events = enabled_events(state, params)
    cumulative: list[float] = []
    running = 0.0
    for _, rate in events:
        running += rate
        cumulative.append(running)
    total = cumulative[-1]
    u1 = float(rng.random())
    u2 = float(rng.random())
    dt = -log1p(-u1) / total
    pick = bisect_right(cumulative, u2 * total)
    if pick == len(events):
        pick -= 1
    return dt, events[pick][0]


# Per-state step records: (cumulative rates, total rate, tuple of
# (code, type0, site0, dest0, next_index)) in ``enabled_events`` order,
# sites 0-based, dest0 = -1 for non-hops.  ``code`` indexes ``_KINDS``.
_ARRIVAL, _DEPARTURE, _HOP_LEFT, _HOP_RIGHT = 0, 1, 2, 3
_KINDS = (EventKind.ARRIVAL, EventKind.DEPARTURE, EventKind.HOP_LEFT, EventKind.HOP_RIGHT)

# Most step records the per-state cache keeps (about 160 bytes each, so
# about 40 MiB in all); a state reached past it is built and used but not
# stored, so memory stays bounded however many distinct states a run visits.
_RECORD_CACHE_LIMIT = 1 << 18


def _state_records(occ: list[int], s: int, params: ModelParams, weight: list[int]):
    """Step records of state ``s``, whose lattice is ``occ``.

    Emits the events of :func:`~sepsim.model.enabled_events` in the same
    order with the same running rate sums, and derives each successor's
    canonical index from ``s`` and the site weights ``weight[i] =
    (K+1)**(N-1-i)`` instead of encoding it.
    """
    n = len(occ)
    alpha, beta, delta = params.alpha, params.beta, params.delta
    cumulative: list[float] = []
    records = []
    running = 0.0
    for i0 in (0, n - 1):
        v, w = occ[i0], weight[i0]
        if v == 0:
            for k0, rate in enumerate(alpha):
                running += rate
                cumulative.append(running)
                records.append((_ARRIVAL, k0, i0, -1, s + (k0 + 1) * w))
        else:
            running += beta[v - 1]
            cumulative.append(running)
            records.append((_DEPARTURE, v - 1, i0, -1, s - v * w))
    if n > 2 or params.boundary_hops:
        # Adjacent pair (i0, i0+1) with one vacant end yields the right hop
        # of site i0 or the left hop of site i0+1: ascending pairs give
        # enabled_events' order (by site, left hop before right).
        for i0, (u, v) in enumerate(zip(occ, occ[1:])):
            if u:
                if v or delta[u - 1] <= 0.0:
                    continue
                running += delta[u - 1]
                cumulative.append(running)
                step = weight[i0] - weight[i0 + 1]
                records.append((_HOP_RIGHT, u - 1, i0, i0 + 1, s - u * step))
            elif v and delta[v - 1] > 0.0:
                running += delta[v - 1]
                cumulative.append(running)
                step = weight[i0] - weight[i0 + 1]
                records.append((_HOP_LEFT, v - 1, i0 + 1, i0, s + v * step))
    return cumulative, running, tuple(records)


def run_replica(
    params: ModelParams,
    config: SimConfig,
    replica_index: int = 0,
    *,
    track_state_occupancy: bool = False,
) -> SimStats:
    """Simulate one replica from the all-vacant state.

    Runs ``config.max_events`` events; the first ``config.warmup_events``
    are discarded from every statistic.  The stream is derived from
    ``(config.seed, replica_index)`` only, so the same triple of inputs is
    bitwise reproducible and replicas may run concurrently.

    ``track_state_occupancy`` additionally accumulates measured time per
    canonical state index (dense vector; desk-scale models only), which is
    what empirical joint-distribution checks consume.
    """
    if replica_index < 0:
        raise ValueError(f"replica_index must be >= 0, got {replica_index!r}")
    n, n_types = params.n_sites, params.n_types
    if track_state_occupancy:
        m = state_space_size(params)
        if m > STATE_TRACKING_LIMIT:
            raise ValueError(
                f"state occupancy tracking needs a dense vector of {m} entries; "
                f"limit is {STATE_TRACKING_LIMIT}"
            )

    rng_random = replica_rng(config.seed, replica_index).random
    table: dict[int, tuple] = {}
    cached = 0  # records stored in ``table``
    weight = [(n_types + 1) ** (n - 1 - i0) for i0 in range(n)]
    warmup = config.warmup_events
    record = config.record_trajectory
    trajectory: list[tuple[float, Event]] | None = [] if record else None
    particles: list[TaggedParticle] | None = [] if record else None
    particle_at: list[int] = [-1] * n

    occ = [0] * n  # the lattice; s is its canonical index
    s = 0
    t = 0.0
    arrival_at: list[float] = [0.0] * n

    # Pass one is the warm-up, pass two the measurement window; statistics
    # restart at the start of each pass, so only the window's are returned.
    for remaining in (warmup, config.max_events - warmup):
        t_start = t
        start_counts = np.bincount(occ, minlength=n_types + 1)[1:].astype(np.int64)
        occupancy = [[0.0] * (n_types + 1) for _ in range(n)]
        last_change = [t] * n
        arrivals = [0] * n_types
        departures = [0] * n_types
        sojourns: list[list[float]] = [[] for _ in range(n_types)]
        in_window = [False] * n
        state_occ = [0.0] * m if track_state_occupancy else None
        while remaining:
            block = min(remaining, _EVENT_BLOCK)
            remaining -= block
            uniforms = iter(rng_random(2 * block).tolist())
            for u1, u2 in zip(uniforms, uniforms):
                try:
                    cumulative, total, records = table[s]
                except KeyError:
                    cumulative, total, records = entry = _state_records(occ, s, params, weight)
                    if cached + len(records) <= _RECORD_CACHE_LIMIT:
                        table[s] = entry
                        cached += len(records)
                dt = -log1p(-u1) / total
                if state_occ is not None:
                    state_occ[s] += dt
                t += dt
                pick = bisect_right(cumulative, u2 * total)
                if pick == len(records):
                    pick -= 1
                code, k0, a, b, s = records[pick]
                if code == _ARRIVAL:
                    occ[a] = k0 + 1
                    occupancy[a][0] += t - last_change[a]
                    last_change[a] = t
                    arrival_at[a] = t
                    in_window[a] = True
                    arrivals[k0] += 1
                    if record:
                        particle_at[a] = len(particles)
                        particles.append(TaggedParticle(len(particles), k0 + 1, t))
                elif code == _DEPARTURE:
                    occ[a] = 0
                    occupancy[a][k0 + 1] += t - last_change[a]
                    last_change[a] = t
                    departures[k0] += 1
                    if in_window[a]:
                        sojourns[k0].append(t - arrival_at[a])
                        in_window[a] = False
                    if record and particle_at[a] >= 0:
                        particles[particle_at[a]].departure_time = t
                        particle_at[a] = -1
                else:
                    occ[b] = k0 + 1
                    occ[a] = 0
                    occupancy[a][k0 + 1] += t - last_change[a]
                    last_change[a] = t
                    occupancy[b][0] += t - last_change[b]
                    last_change[b] = t
                    arrival_at[b] = arrival_at[a]
                    in_window[b] = in_window[a]
                    in_window[a] = False
                    if record:
                        particle_at[b] = particle_at[a]
                        particle_at[a] = -1
                if record:
                    trajectory.append((t, Event(_KINDS[code], a + 1, k0 + 1)))

    for i0 in range(n):
        occupancy[i0][occ[i0]] += t - last_change[i0]
    end_counts = np.bincount(occ, minlength=n_types + 1)[1:].astype(np.int64)

    return SimStats(
        n_sites=n,
        n_types=n_types,
        total_time=t - t_start,
        site_occupancy_time=np.array(occupancy),
        arrivals_by_type=np.array(arrivals, dtype=np.int64),
        departures_by_type=np.array(departures, dtype=np.int64),
        start_counts_by_type=start_counts,
        end_counts_by_type=end_counts,
        completed_sojourns=sojourns,
        event_count=config.max_events,
        state_occupancy_time=None if state_occ is None else np.array(state_occ),
        trajectory=trajectory,
        tagged_particles=particles,
    )


def merge_replicas(stats: Sequence[SimStats]) -> SimStats:
    """Pool replica statistics: times and counts add, sojourn lists pool.

    The result is independent of the input order: float sums are computed
    exactly (elementwise sorted summation / ``fsum``) and pooled sojourn
    lists are sorted.  Merging a single replica returns an independent
    copy, trajectory and tagged particles included; merging several drops
    trajectories and tagged particles, which have no meaningful pooled form.
    """
    stats = list(stats)
    if not stats:
        raise ValueError("nothing to merge")
    first = stats[0]
    if len(stats) == 1:
        return copy.deepcopy(first)
    for other in stats[1:]:
        if other.n_sites != first.n_sites or other.n_types != first.n_types:
            raise ValueError(
                "cannot merge statistics from different models: "
                f"({first.n_sites} sites, {first.n_types} types) vs "
                f"({other.n_sites} sites, {other.n_types} types)"
            )

    def exact_sum(arrays: list[np.ndarray]) -> np.ndarray:
        return np.sort(np.stack(arrays), axis=0).sum(axis=0)

    track = all(s.state_occupancy_time is not None for s in stats)
    sojourns = [
        sorted(value for s in stats for value in s.completed_sojourns[k0])
        for k0 in range(first.n_types)
    ]
    return SimStats(
        n_sites=first.n_sites,
        n_types=first.n_types,
        total_time=fsum(s.total_time for s in stats),
        site_occupancy_time=exact_sum([s.site_occupancy_time for s in stats]),
        arrivals_by_type=sum(s.arrivals_by_type for s in stats),
        departures_by_type=sum(s.departures_by_type for s in stats),
        start_counts_by_type=sum(s.start_counts_by_type for s in stats),
        end_counts_by_type=sum(s.end_counts_by_type for s in stats),
        completed_sojourns=sojourns,
        event_count=sum(s.event_count for s in stats),
        state_occupancy_time=exact_sum([s.state_occupancy_time for s in stats]) if track else None,
        trajectory=None,
        tagged_particles=None,
    )
