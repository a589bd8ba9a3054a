"""Event-driven continuous-time simulation of the lattice dynamics.

The sampler is the direct method: draw an exponential holding time from
the total enabled rate, then pick one event with probability proportional
to its rate.  Both draws are plain uniform doubles consumed in a fixed
order (holding time first), which makes replicas bit-reproducible and lets
:func:`run_replica` pick exactly the same events as repeated calls to
:func:`sample_next_event`.

:func:`run_replica` draws the uniforms in blocks.  The order of events
depends only on the state (see ``RNG_SCHEME["event_order"]``): the site-1
block, the site-N block, then each type's active bonds in ascending order.
Two paths pick from that order, bitwise alike, and the run takes one of
them by lattice size:

- the memo path, where every state's step records (upper ends,
  successor) fit in ``_RECORD_CACHE_LIMIT`` records, keeps each visited
  state's records, built in O(N) on first visit.  Each block of uniforms
  is a bare walk that picks by bisection and logs the states it visits;
  the window statistics then come from that state sequence in one numpy
  pass per block;
- the incremental path is one event loop over a lattice array that keeps
  one sorted list of active bonds per type, updates at most two of them
  per event, and picks the class by bisection over the K+2 class ends and
  the bond by division, so its cost per event does not grow with N; it
  updates the statistics event by event.

One replica on one core of a 2-core machine, in µs/event: 0.51-0.66 at
N=5, K=2 (memo path, 10^6 events; 0.75-1.02 when the memo path updated
its statistics event by event); 3.4-4.0 at N=30, K=3, 3.0-3.1 at N=100,
K=2 and 3.7-4.7 at N=1000, K=2 (incremental path, 10^5 events).

:func:`run_replicas` runs all replicas of a run.  Long runs of two or
more replicas go to a pool of forked worker processes, at most one per
usable CPU; the rest run one after another in process.  Each replica is
the same :func:`run_replica` call either way, so the results are bitwise
those of a serial run.

Replica streams come from a counter-based generator: replica ``i`` of a
run seeded with ``s`` uses ``numpy`` Philox keyed by
``SeedSequence(entropy=s, spawn_key=(i,))``.  Exponentials are drawn by
inversion (``-log1p(-u) / rate``), never by ziggurat, so the uniform
stream alone determines the run.

Statistics accumulate only after a warm-up prefix of
``floor(warmup_fraction * max_events)`` events; the measurement clock runs
from the time of the last warm-up event to the time of the final event.
Sojourn times are recorded only for particles that both arrive and depart
inside that window (censoring note: particles still present at the end are
dropped, a bias that vanishes for long runs).
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields, replace
from itertools import accumulate
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
    "SimStats",
    "replica_rng",
    "sample_next_event",
    "run_replica",
    "run_replicas",
    "merge_replicas",
]

# Pinned generator and stream derivation, recorded in report metadata.
RNG_SCHEME = {
    "bit_generator": "Philox",
    "stream": "SeedSequence(entropy=seed, spawn_key=(replica_index,))",
    "draws_per_event": "two uniform doubles: inverse-transform holding time, then cumulative-rate event pick",
    "event_order": (
        "site-1 block, site-N block, then for each type k its active bonds (i, i+1) in ascending i; "
        "upper ends: block base + running alpha sum (or + beta), hop member j of type k at "
        "B_k + (j+1)*delta_k with B_{k+1} = B_k + count_k*delta_k; pick the first upper end > u2*total"
    ),
}

# Per-state-index occupancy tracking allocates a dense vector; refuse
# beyond this size.
STATE_TRACKING_LIMIT = 1 << 20

# Events per block of uniforms drawn at once (two uniforms per event).
_EVENT_BLOCK = 1 << 15

# Fewest events in all (replicas * max_events) for which run_replicas uses
# a process pool.  Creating and tearing down the pool costs 15-20 ms.  On
# a 2-core machine at N=5/K=2 the pool is slower below 5*10^4 events, as
# fast at 5*10^4, and faster in at least 10 of 11 calls from 10^5 on
# (figures in run_replicas).
_POOL_MIN_EVENTS = 100_000


@dataclass(frozen=True)
class SimConfig:
    """Run configuration shared by all replicas of one simulation."""

    seed: int
    max_events: int = 100_000
    warmup_fraction: float = 0.2
    replicas: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if not isinstance(self.max_events, int) or isinstance(self.max_events, bool) or self.max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {self.max_events!r}")
        if (not isinstance(self.warmup_fraction, Real) or isinstance(self.warmup_fraction, bool)
                or not 0.0 <= self.warmup_fraction < 1.0):
            raise ValueError(f"warmup_fraction must be in [0, 1), got {self.warmup_fraction!r}")
        if not isinstance(self.replicas, int) or isinstance(self.replicas, bool) or self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas!r}")

    @property
    def warmup_events(self) -> int:
        return int(self.warmup_fraction * self.max_events)


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
    """One step of the direct method from ``state``: the reference stepper.

    Consumes exactly two uniform doubles from ``rng``: the holding time is
    ``-log1p(-u1) / total_rate`` and the event is the first, in the order
    of ``RNG_SCHEME["event_order"]``, whose upper end exceeds
    ``u2 * total_rate``.  Deterministic given the stream position, and
    :func:`run_replica` picks bitwise the same event from the same state.
    """
    events = enabled_events(state, params)
    boundary = [item for item in events if item[0].kind in _BOUNDARY_KINDS]
    hops = sorted(
        (item for item in events if item[0].kind not in _BOUNDARY_KINDS),
        key=lambda item: item[0].ptype,
    )
    uppers: list[float] = []
    base = 0.0
    for site in (1, params.n_sites):
        running = 0.0
        for event, rate in boundary:
            if event.site == site:
                running += rate
                uppers.append(base + running)
        base = base + running
    for k, rate in enumerate(params.delta, start=1):
        count = sum(event.ptype == k for event, _ in hops)
        uppers.extend(base + (j + 1) * rate for j in range(count))
        base = base + count * rate
    u1 = float(rng.random())
    u2 = float(rng.random())
    dt = -log1p(-u1) / base
    pick = min(bisect_right(uppers, u2 * base), len(uppers) - 1)
    return dt, (boundary + hops)[pick][0]


# Event codes of the incremental path.
_ARRIVAL, _DEPARTURE, _HOP_LEFT, _HOP_RIGHT = 0, 1, 2, 3
_BOUNDARY_KINDS = (EventKind.ARRIVAL, EventKind.DEPARTURE)

# Record budget of the per-state memo (80-100 bytes a record with its
# state's share, so about 25 MiB).  A lattice all of whose states' records
# fit in it runs from the memo; any other runs the incremental path.
_RECORD_CACHE_LIMIT = 1 << 18


def _memo_fits(params: ModelParams) -> bool:
    """Whether the records of all (K+1)^N states, at most N+2K-1 events
    each, fit in ``_RECORD_CACHE_LIMIT``: the path rule of :func:`run_replica`."""
    n, k = params.n_sites, params.n_types
    return (k + 1) ** n * (n + 2 * k - 1) <= _RECORD_CACHE_LIMIT


def _block_sums(params: ModelParams) -> list[tuple[float, ...]]:
    """A boundary block's running rate sums, indexed by the site's value:
    the arrivals' running alpha sums when vacant, else the departure's beta."""
    return [tuple(accumulate(params.alpha))] + [(rate,) for rate in params.beta]


def _hop_rates(params: ModelParams) -> tuple[float, ...]:
    """delta per type, or all zero on a two-site lattice without boundary
    hops, whose one bond joins the two boundary sites."""
    if params.n_sites == 2 and not params.boundary_hops:
        return (0.0,) * params.n_types
    return params.delta


def _state_step(s: int, weight: list[int], sums, delta):
    """Upper ends, total rate and successor indices of state ``s``.

    Events come in ``RNG_SCHEME["event_order"]``; each type's active bonds
    are collected in ascending order.  The lattice and the successor
    indices are derived from ``s`` and the site weights
    ``weight[i] = (K+1)**(N-1-i)``.
    """
    occ = [s // w % len(sums) for w in weight]
    n = len(occ)
    uppers: list[float] = []
    successors: list[int] = []
    base = 0.0
    for i0 in (0, n - 1):
        v, w = occ[i0], weight[i0]
        if v:
            successors.append(s - v * w)
        else:
            successors.extend(s + (k0 + 1) * w for k0 in range(len(delta)))
        uppers.extend(base + running for running in sums[v])
        base = base + sums[v][-1]
    hops: list[list[int]] = [[] for _ in delta]
    for i0, (u, v) in enumerate(zip(occ, occ[1:])):
        if (u == 0) != (v == 0) and delta[u + v - 1] > 0.0:
            step = weight[i0] - weight[i0 + 1]
            hops[u + v - 1].append(s - u * step if u else s + v * step)
    for members, rate in zip(hops, delta):
        uppers.extend(base + (j + 1) * rate for j in range(len(members)))
        successors.extend(members)
        base = base + len(members) * rate
    return uppers, base, successors


class _MemoWalk:
    """The memo path's walk over the lattice's states.

    Each state gets a dense id when first reached; ``steps[c]`` holds the
    upper ends, total rate and successor ids of state ``states[c]`` once it
    has been visited (None before).  A block of events is then a bare walk
    over ids, whose states and total rates are gathered afterwards.
    ``totals`` is the array of each id's total rate (0 until visited); the
    totals of a block's first visits are written into a grown copy of it
    after that block, so a block that visits no new state reuses it.
    """

    def __init__(self, params: ModelParams, rng_random) -> None:
        n = params.n_sites
        self.weight = [(params.n_types + 1) ** (n - 1 - i0) for i0 in range(n)]
        self.sums, self.delta = _block_sums(params), _hop_rates(params)
        self.rng_random = rng_random
        self.id_of = {0: 0}  # state index -> id
        self.states = [0]  # id -> state index
        self.totals = np.zeros(1)  # id -> total rate, once visited
        self.fresh: list[tuple[int, float]] = []  # (id, total) visited in this block
        self.steps: list[tuple | None] = [None]
        self.current = 0  # the current state's id
        self.t = 0.0

    def _visit(self, c: int) -> tuple:
        uppers, total, successors = _state_step(self.states[c], self.weight, self.sums, self.delta)
        id_of, states = self.id_of, self.states
        for s in successors:
            if s not in id_of:
                id_of[s] = len(states)
                states.append(s)
                self.steps.append(None)
        self.fresh.append((c, total))
        step = self.steps[c] = (uppers, total, tuple(id_of[s] for s in successors))
        return step

    def blocks(self, events: int):
        """Walk ``events`` events, ``_EVENT_BLOCK`` at a time.  Yields each
        block's state ids and event times, each led by the id and time
        before the block's first event, and its holding times."""
        steps = self.steps
        while events:
            block = min(events, _EVENT_BLOCK)
            events -= block
            uniforms = self.rng_random(2 * block)
            c = self.current
            path = [c]
            append = path.append
            # u2 <= 1 - 2**-53, so u2 * total rounds below total, the last
            # upper end: the bisection always finds an event.
            for u2 in uniforms[1::2].tolist():
                try:
                    uppers, total, successors = steps[c]
                except TypeError:  # None: a state not visited before
                    uppers, total, successors = self._visit(c)
                c = successors[bisect_right(uppers, u2 * total)]
                append(c)
            self.current = c
            ids = np.fromiter(path, np.int64, block + 1)
            # math.log1p, not np.log1p: numpy's SIMD log1p may round differently.
            dt = -np.fromiter(map(log1p, (-uniforms[0::2]).tolist()), float, block)
            if self.fresh:
                totals = np.zeros(len(self.states))
                totals[: len(self.totals)] = self.totals
                totals[[c for c, _ in self.fresh]] = [total for _, total in self.fresh]
                self.totals, self.fresh = totals, []
            dt /= self.totals[ids[:-1]]
            times = np.cumsum(np.concatenate(([self.t], dt)))  # adds in order, as t += dt
            self.t = float(times[-1])
            yield ids, times, dt


def _add_in_order(totals: np.ndarray, index: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """``totals`` after ``totals[index[i]] += terms[i]`` for each i in
    turn: ``np.bincount`` adds its weights in order, the totals first."""
    cells = len(totals)
    return np.bincount(
        np.concatenate((np.arange(cells), index)), np.concatenate((totals, terms)), minlength=cells
    )


def _memo_replica(params: ModelParams, config: SimConfig, rng_random, m: int) -> SimStats:
    """:func:`run_replica` on the memo path, with state occupancy tracked
    over ``m`` states when ``m`` is nonzero.

    The walk gives each block's state ids and times; the window statistics
    come from them in one numpy pass per block, bitwise as one event at a
    time: each running sum takes its additions in time order.
    """
    n, n_types = params.n_sites, params.n_types
    radix = n_types + 1
    walk = _MemoWalk(params, rng_random)
    warmup = config.warmup_events
    for _ in walk.blocks(warmup):
        pass

    # Per id seen so far: the state index, each site's value and the
    # particle count.
    place = np.array(walk.weight, dtype=np.int64)[:, None]
    index = np.zeros(0, dtype=np.int64)
    lattice = np.zeros((n, 0), dtype=np.min_scalar_type(n_types))
    particles = np.zeros(0, dtype=np.intp)

    def site_values(c: int) -> list[int]:
        return [walk.states[c] // w % radix for w in walk.weight]

    t_start = walk.t
    start_counts = np.bincount(site_values(walk.current), minlength=radix)[1:].astype(np.int64)
    occupancy = np.zeros((n, radix))
    last_change = [walk.t] * n
    arrivals = np.zeros(radix, dtype=np.int64)  # by particle value
    departures = np.zeros(radix, dtype=np.int64)
    sojourns: list[list[float]] = [[] for _ in range(n_types)]
    # Particles never pass each other, so from site 1 to site N they hold
    # consecutive slots lo, ..., hi - 1: an arrival at site 1 takes slot
    # lo - 1 and one at site N slot hi; a departure from site 1 frees slot
    # lo and one from site N slot hi - 1.  ``arrived`` holds their arrival
    # times, NaN for those present when the window opened.
    lo, hi = 0, int(start_counts.sum())
    arrived = np.full(hi, np.nan)
    state_occ = np.zeros(m) if m else None

    for ids, times, dt in walk.blocks(config.max_events - warmup):
        if len(index) < len(walk.states):
            new = np.array(walk.states[len(index):], dtype=np.int64)
            index = np.concatenate((index, new))
            lattice = np.concatenate((lattice, (new // place % radix).astype(lattice.dtype)), axis=1)
            particles = np.count_nonzero(lattice, axis=0)
        if state_occ is not None:
            state_occ = _add_in_order(state_occ, index[ids[:-1]], dt)
        occ = lattice[:, ids]  # column j: the lattice after the block's event j

        # Each site's time in each value, added when the site changes.
        for i0, values in enumerate(occ):
            j = np.flatnonzero(values[1:] != values[:-1])
            if len(j):
                when = times[j + 1]
                spans = np.diff(when, prepend=last_change[i0])
                occupancy[i0] = _add_in_order(occupancy[i0], values[j], spans)
                last_change[i0] = when[-1]

        # Arrivals and departures: the events that change the particle count.
        moved = np.diff(particles[ids])
        event = np.flatnonzero(moved)
        pop = moved[event] < 0
        first, last = occ[0], occ[-1]
        left = first[event] != first[event + 1]
        value = np.where(left, first[event] + first[event + 1], last[event] + last[event + 1])
        arrivals += np.bincount(value[~pop], minlength=radix)
        departures += np.bincount(value[pop], minlength=radix)
        lo_after = lo + np.cumsum(np.where(left, 2 * pop - 1, 0))
        hi_after = hi + np.cumsum(np.where(left, 0, 1 - 2 * pop))
        slot = np.where(left, lo_after - pop, hi_after - ~pop)

        # In each slot arrivals and departures alternate, so in slot order,
        # then time order, a departure directly follows the arrival of the
        # particle it removes.
        slots = np.concatenate((np.arange(lo, hi), slot))
        at = np.concatenate((arrived, times[event + 1]))
        order = np.argsort(slots, kind="stable")
        popped = np.concatenate((np.zeros(hi - lo, dtype=bool), pop))[order]
        p = np.flatnonzero(popped)
        stays = at[order[p]] - at[order[p - 1]]
        stays, kinds = stays[np.argsort(order[p])], value[pop]  # in time order
        for k0, out in enumerate(sojourns, start=1):
            stay = stays[kinds == k0]
            out.extend(stay[~np.isnan(stay)].tolist())
        sorted_slots = slots[order]
        ends = np.flatnonzero(np.append(sorted_slots[1:] != sorted_slots[:-1], True))
        arrived = at[order[ends[~popped[ends]]]]
        if len(event):
            lo, hi = int(lo_after[-1]), int(hi_after[-1])

    t = walk.t
    end = site_values(walk.current)
    for i0, v in enumerate(end):
        occupancy[i0, v] += t - last_change[i0]
    return SimStats(
        n_sites=n,
        n_types=n_types,
        total_time=t - t_start,
        site_occupancy_time=occupancy,
        arrivals_by_type=arrivals[1:],
        departures_by_type=departures[1:],
        start_counts_by_type=start_counts,
        end_counts_by_type=np.bincount(end, minlength=radix)[1:].astype(np.int64),
        completed_sojourns=sojourns,
        event_count=config.max_events,
        state_occupancy_time=state_occ,
    )


def _flip_bond(bonds: list[list[int]], delta, i0: int, k0: int, far: int) -> None:
    """Bond ``i0``'s near end switches between vacant and type ``k0 + 1``
    while its far end holds ``far``, so the bond turns active or inactive:
    insert it into, or delete it from, its type's sorted list."""
    if far:
        k0 = far - 1
    if delta[k0] > 0.0:
        members = bonds[k0]
        j = bisect_left(members, i0)
        if j < len(members) and members[j] == i0:
            del members[j]
        else:
            members.insert(j, i0)


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

    The path is chosen once per run by :func:`_memo_fits`.  The memo path
    (:func:`_memo_replica`) keeps each visited state's step
    (:func:`_state_step`) in a table that can hold every state's, walks
    each block of uniforms by one bisection per event over the upper ends,
    and takes the window statistics from the block's state sequence in
    numpy.  The incremental path keeps each type's active bonds as a sorted
    list, updates at most two of them per event, picks the class by
    bisection over the K+2 class ends and the member by division, and
    updates the statistics as it goes.  Both use the same upper-end
    expressions, so they pick the same events, and both add each running
    statistic's terms in time order, so their statistics are bitwise alike.
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
    if _memo_fits(params):
        return _memo_replica(params, config, rng_random, m if track_state_occupancy else 0)
    sums = _block_sums(params)
    block_total = [block[-1] for block in sums]
    delta = _hop_rates(params)
    bonds: list[list[int]] = [[] for _ in range(n_types)]  # active bonds per type, ascending
    weight = [(n_types + 1) ** (n - 1 - i0) for i0 in range(n)]
    warmup = config.warmup_events

    # The lattice; s is its canonical index, which the incremental path
    # keeps only when it tracks state occupancy.
    occ = [0] * n
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
            # u2 <= 1 - 2**-53, so u2 * total rounds below total, the last
            # class end: the bisection always finds a class.
            for u1, u2 in zip(uniforms, uniforms):
                ends = [block_total[occ[0]]]  # the site-1 block's end, 0.0 + its sum
                total = ends[0] + block_total[occ[-1]]
                ends.append(total)
                for members, rate in zip(bonds, delta):
                    total = total + len(members) * rate
                    ends.append(total)
                dt = -log1p(-u1) / total
                x = u2 * total
                c = bisect_right(ends, x)
                if c < 2:
                    a, b = (0 if c == 0 else n - 1), -1
                    v = occ[a]
                    if v:
                        code, k0 = _DEPARTURE, v - 1
                    else:
                        code, k0 = _ARRIVAL, 0
                        lower = 0.0 if c == 0 else ends[0]
                        while lower + sums[0][k0] <= x:
                            k0 += 1
                    # The boundary site's one bond flips.
                    if a:
                        _flip_bond(bonds, delta, a - 1, k0, occ[a - 1])
                    else:
                        _flip_bond(bonds, delta, 0, k0, occ[1])
                else:
                    k0 = c - 2
                    members, rate, lower = bonds[k0], delta[k0], ends[c - 1]
                    j = min(int((x - lower) / rate), len(members) - 1)
                    while lower + j * rate > x:
                        j -= 1
                    while lower + (j + 1) * rate <= x:
                        j += 1
                    i0 = members[j]
                    code, a, b = (_HOP_RIGHT, i0, i0 + 1) if occ[i0] else (_HOP_LEFT, i0 + 1, i0)
                    # The hopped bond stays active; the bonds beyond its two ends flip.
                    if i0:
                        _flip_bond(bonds, delta, i0 - 1, k0, occ[i0 - 1])
                    if i0 < n - 2:
                        _flip_bond(bonds, delta, i0 + 1, k0, occ[i0 + 2])
                if state_occ is not None:
                    state_occ[s] += dt
                    if code == _ARRIVAL:
                        s += (k0 + 1) * weight[a]
                    elif code == _DEPARTURE:
                        s -= (k0 + 1) * weight[a]
                    else:
                        s += (k0 + 1) * (weight[b] - weight[a])
                t += dt
                if code == _ARRIVAL:
                    occ[a] = k0 + 1
                    occupancy[a][0] += t - last_change[a]
                    last_change[a] = t
                    arrival_at[a] = t
                    in_window[a] = True
                    arrivals[k0] += 1
                elif code == _DEPARTURE:
                    occ[a] = 0
                    occupancy[a][k0 + 1] += t - last_change[a]
                    last_change[a] = t
                    departures[k0] += 1
                    if in_window[a]:
                        sojourns[k0].append(t - arrival_at[a])
                        in_window[a] = False
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
    )


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pool_workers(config: SimConfig, cpus: int) -> int:
    """Worker processes for ``config``'s replicas on ``cpus`` usable CPUs,
    or 0 to run them in process: the rule of :func:`run_replicas`."""
    workers = min(config.replicas, cpus)
    if workers < 2 or config.replicas * config.max_events < _POOL_MIN_EVENTS:
        return 0
    return workers


def run_replicas(
    params: ModelParams,
    config: SimConfig,
    *,
    track_state_occupancy: bool = False,
) -> list[SimStats]:
    """All ``config.replicas`` replicas of one run, in index order.

    Each replica is one :func:`run_replica` call with its own stream, so
    the result does not depend on where or in what order they run.  They
    run on a process pool of ``min(replicas, usable CPUs)`` workers, one
    replica per task, when that is at least two workers and the run has at
    least ``_POOL_MIN_EVENTS`` events in all; otherwise one after another
    in this process.

    Workers are forked, not spawned: a fork inherits the imported modules,
    while a spawned worker would import numpy and sepsim again before its
    first event.  The sampler starts no threads and takes no locks, and
    the pool is used only while the caller runs no other thread, so the
    fork is safe; in a threaded caller, or on a platform without
    ``fork``, the replicas run in process.  Serial against pooled on a
    2-core machine, N=5/K=2 with state tracking, medians of 11 alternating
    calls: 2 x 2500 events 11 -> 19 ms, 2 x 2.5*10^4 38 -> 37 ms,
    2 x 5*10^4 69 -> 59 ms, 4 x 5*10^4 121 -> 89 ms, 4 x 2*10^5 448 -> 266 ms.
    """
    workers = _pool_workers(config, _usable_cpus())
    if workers:
        import multiprocessing
        import threading

        # A fork copies only the calling thread, so a lock another thread
        # holds would stay locked in the worker.
        if threading.active_count() == 1 and "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            try:
                futures = [
                    pool.submit(run_replica, params, config, index,
                                track_state_occupancy=track_state_occupancy)
                    for index in range(config.replicas)
                ]
                return [future.result() for future in futures]
            finally:
                pool.shutdown(cancel_futures=True)
    return [
        run_replica(params, config, index, track_state_occupancy=track_state_occupancy)
        for index in range(config.replicas)
    ]


def _fresh(value):
    """A copy of a :class:`SimStats` field's value that shares only its
    immutable parts: numbers, and the floats of the sojourn lists."""
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, list):
        return [list(item) for item in value]
    return value


def merge_replicas(stats: Sequence[SimStats]) -> SimStats:
    """Pool replica statistics: times and counts add, sojourn lists pool.

    The result is independent of the input order: ``total_time`` is an
    exact sum (``fsum``); the occupancy arrays add each element's values in
    sorted order, which rounds but does not depend on the order of the
    inputs; and pooled sojourn lists are sorted.  Merging a single replica
    returns an independent copy.
    """
    stats = list(stats)
    if not stats:
        raise ValueError("nothing to merge")
    first = stats[0]
    if len(stats) == 1:
        return replace(first, **{f.name: _fresh(getattr(first, f.name)) for f in fields(first)})
    for other in stats[1:]:
        if other.n_sites != first.n_sites or other.n_types != first.n_types:
            raise ValueError(
                "cannot merge statistics from different models: "
                f"({first.n_sites} sites, {first.n_types} types) vs "
                f"({other.n_sites} sites, {other.n_types} types)"
            )

    def sorted_sum(arrays: list[np.ndarray]) -> np.ndarray:
        return np.sort(np.stack(arrays), axis=0).sum(axis=0)

    track = all(s.state_occupancy_time is not None for s in stats)
    sojourns = [
        np.sort(np.concatenate([s.completed_sojourns[k0] for s in stats])).tolist()
        for k0 in range(first.n_types)
    ]
    return SimStats(
        n_sites=first.n_sites,
        n_types=first.n_types,
        total_time=fsum(s.total_time for s in stats),
        site_occupancy_time=sorted_sum([s.site_occupancy_time for s in stats]),
        arrivals_by_type=sum(s.arrivals_by_type for s in stats),
        departures_by_type=sum(s.departures_by_type for s in stats),
        start_counts_by_type=sum(s.start_counts_by_type for s in stats),
        end_counts_by_type=sum(s.end_counts_by_type for s in stats),
        completed_sojourns=sojourns,
        event_count=sum(s.event_count for s in stats),
        state_occupancy_time=sorted_sum([s.state_occupancy_time for s in stats]) if track else None,
    )
