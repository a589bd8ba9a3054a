"""Event-driven continuous-time simulation of the lattice dynamics.

The sampler is the direct method: draw an exponential holding time from
the total enabled rate, then pick one event with probability proportional
to its rate.  Both draws are plain uniform doubles consumed in a fixed
order (holding time first), which makes replicas bit-reproducible and lets
:func:`run_replica` pick exactly the same events as the tests' reference
stepper, which takes one event at a time.

:func:`run_replica` draws the uniforms in blocks.  The order of events
depends only on the state (see ``RNG_SCHEME["event_order"]``): the site-1
block, the site-N block, then each type's active bonds in ascending order.
A run has two parts.  A *walk* picks the events from that order and
advances time; there are two, bitwise alike, and the run takes one of them
by lattice size:

- the memo walk, where every state's step records fit in
  ``_RECORD_CACHE_LIMIT`` records, walks on canonical state indices
  through one table per model (:class:`_MemoTable`): every state's
  successors, built at once from the event rules of
  :func:`~sepsim.exact._event_pairs`, and its pick row (see below).  One
  table, one budget: the record budget alone bounds the pick rows too,
  whatever the rates (see ``_RECORD_CACHE_LIMIT``);
- the lattice walk keeps the lattice as a list and one sorted list of
  active bonds per type, toggles at most two bonds in place per event,
  and picks the class (the n-fold way of Bortz, Kalos and Lebowitz, J.
  Comput. Phys. 17, 1975) by one running scan of the K+2 class widths,
  summed as the total was, and the bond by division, so no step of an
  event scans the lattice or a bond list.

The warm-up is the bare walk.  One *window pass* then takes every
statistic from what the walk gives for each block of the window, in
numpy: its event times, its holding times, its site changes sorted by
site with the N+1 cut points between the sites, and, where state
occupancy is tracked, the state before each event.  Arrivals and
departures are the changes at site 1 and site N whose event changes no
neighbouring site.

A state's upper ends depend only on its *rate profile*: the values of
site 1 and site N and its number of active bonds of each type.  The memo
walk's table (:class:`_MemoTable`) is built from the threshold of each
upper end ``e`` of a profile's total ``T``, the smallest double ``u``
with ``u * T >= e`` as the product rounds.  Rounding is monotone, so the
bisection's pick ``bisect_right(uppers, u2 * T)`` is the number of
thresholds at most ``u2``.  The thresholds of all profiles cut [0, 1)
into cells, found for a whole block of uniforms at once; a byte row per
profile maps each cell to that number, so the pick, the stream and every
statistic are bitwise those of the bisection (the guide table of Chen and
Asau, AIIE Trans. 6, 1974, made exact).

:func:`run_replicas` runs all replicas of a run.  Long runs of two or
more replicas are shared among W workers, at most one per usable CPU: the
calling process is worker 0 and runs its share while W - 1 forked children
run theirs and send their results back over pipes; no child outlives the
call.  The rest run one after another in process.  Each replica is the
same :func:`run_replica` call either way, so the results are bitwise those
of a serial run.

Replica streams come from a counter-based generator: replica ``i`` of a
run seeded with ``s`` uses ``numpy`` Philox keyed by
``SeedSequence(entropy=s, spawn_key=(i,))``.  Exponentials are drawn by
inversion (``-log1p(-u) / rate``), never by ziggurat, so the uniform
stream alone determines the run.  The tests' reference stepper takes
:func:`math.log1p` and a walk the same C library ``log1p`` through one
numpy call per block (see :meth:`_Walk.blocks`), so both give the same
bits.

Statistics accumulate only after a warm-up prefix of
``floor(warmup_fraction * max_events)`` events; the measurement clock runs
from the time of the last warm-up event to the time of the final event.
Sojourn times are recorded only for particles that both arrive and depart
inside that window (censoring note: particles still present at the end are
dropped, a bias that vanishes for long runs).
"""

from __future__ import annotations

import os
import pickle
import threading
from bisect import bisect_left, insort
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from itertools import accumulate
from math import fsum
from numbers import Real
from typing import NoReturn, Sequence

import numpy as np

from .exact import _event_pairs
from .model import ModelParams, state_space_size

__all__ = [
    "RNG_SCHEME",
    "STATE_TRACKING_LIMIT",
    "SimConfig",
    "SimStats",
    "replica_rng",
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

# Events per block of uniforms drawn at once (two uniforms per event).  The
# window pass holds a few arrays of one entry per site change of a block:
# at N=30, K=3 and 10^5 events the traced peak of a replica was 2.7 MiB
# with blocks of 2^13 events and 9.5 MiB with 2^15, at the same speed.
_EVENT_BLOCK = 1 << 13

# Fewest events in all (replicas * max_events) for which run_replicas forks.
# Forking and reaping the children costs about 5 ms over a serial run (4 x
# 10^3 events at N=5/K=2).  On a 2-vCPU virtual machine the crossover moves
# with how free the second vCPU is: with 4 replicas the forks win from 10^5
# events, but with 2 they lost every call at 5*10^4 and 10^5 in two sets of
# four, and from 2*10^5 on they win in 5-11 of 11 calls (figures in
# run_replicas).  Below this floor two-replica runs lose whole sets.
_POOL_MIN_EVENTS = 200_000


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
    ``completed_sojourns[k0]`` is a float64 array of the sojourn times of
    type ``k0 + 1`` completed in the window: in time order for one
    replica, sorted for a merge.  ``event_count`` is the number of events
    executed including warm-up.
    """

    n_sites: int
    n_types: int
    total_time: float
    site_occupancy_time: np.ndarray
    arrivals_by_type: np.ndarray
    departures_by_type: np.ndarray
    start_counts_by_type: np.ndarray
    end_counts_by_type: np.ndarray
    completed_sojourns: list[np.ndarray]
    event_count: int
    state_occupancy_time: np.ndarray | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimStats):
            return NotImplemented
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if f.name == "completed_sojourns":
                if len(mine) != len(theirs) or not all(map(np.array_equal, mine, theirs)):
                    return False
            elif isinstance(mine, np.ndarray) or isinstance(theirs, np.ndarray):
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


# Record budget of the memo walk's table, which holds every state's
# successors, at most N+2K-1 records each, built at once per model.  At
# the README rates the table keeps 29 bytes per budget record at N=9/K=2
# and 26 at N=14/K=1 (6.5 and 6.0 MiB traced; the build's traced peak is
# 8.9 and 8.0 MiB).  It bounds the table's pick rows too: with every
# threshold distinct, the worst case for any rates, the largest pick table
# (rows and cell grid) of the 97 lattices it admits is 19,866,226 bytes,
# at N=3/K=18, and no state has 256 events.
_RECORD_CACHE_LIMIT = 1 << 18


def _memo_fits(params: ModelParams) -> bool:
    """Whether the records of all (K+1)^N states, at most N+2K-1 events
    each, fit in ``_RECORD_CACHE_LIMIT``: the walk rule of
    :func:`run_replica`.  It is the one budget of the memo walk's table,
    which it bounds, pick rows included (see ``_RECORD_CACHE_LIMIT``).

    A closed form of N and K: it builds nothing.  The rule looks at the
    lattice, not at the run, so a short run on a large memo lattice builds
    states it never visits."""
    n, k = params.n_sites, params.n_types
    return (k + 1) ** n * (n + 2 * k - 1) <= _RECORD_CACHE_LIMIT


def _block_sums(params: ModelParams) -> list[tuple[float, ...]]:
    """A boundary block's running rate sums, indexed by the site's value:
    the arrivals' running alpha sums when vacant, else the departure's beta."""
    return [tuple(accumulate(params.alpha))] + [(rate,) for rate in params.beta]


def _profile_ends(profile: tuple, sums, delta) -> tuple[list[float], float]:
    """Upper ends and total rate of every state of rate profile
    ``profile``, in ``RNG_SCHEME["event_order"]``.

    A state's upper ends depend only on its *rate profile*
    ``(first, last, *counts)``: the values of site 1 and site N and the
    number of active bonds of each type, 0 for a type that does not hop.
    """
    first, last, *counts = profile
    uppers: list[float] = []
    base = 0.0
    for v in (first, last):
        uppers.extend(base + running for running in sums[v])
        base = base + sums[v][-1]
    for count, rate in zip(counts, delta):
        uppers.extend(base + (j + 1) * rate for j in range(count))
        base = base + count * rate
    return uppers, base


def _state_events(params: ModelParams) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Each state's successors, in ``RNG_SCHEME["event_order"]``, and its
    rate profile (see :func:`_profile_ends`), by canonical state index,
    read off the event families of :func:`~sepsim.exact._event_pairs`.

    A family and its reverse fill one column of a ``(K+1,)*N + (pairs,)``
    int32 tensor of successors, -1 where neither fires: each state of ``a``
    goes to the state in the same place of ``b``, and each state of ``b``
    back.  The families come in the sampler's order, each filling the
    column of its own index, so a state's row lists its events in that
    order, which the row-major order of boolean indexing keeps.  The
    tensor and its mask are dropped before the successors become lists.
    """
    n, n_types, radix = params.n_sites, params.n_types, params.n_types + 1
    shape = (radix,) * n
    m = state_space_size(params)
    ids = np.arange(m, dtype=np.int32).reshape(shape)
    pairs = list(_event_pairs(params))
    boundary = 2 * n_types
    mobile = [k0 for k0, rate in enumerate(params.delta) if rate > 0.0]
    targets = np.full(shape + (len(pairs),), -1, dtype=np.int32)
    for column, (a, b, *_) in enumerate(pairs):
        targets[a + (column,)] = ids[b]
        targets[b + (column,)] = ids[a]
    targets = targets.reshape(m, len(pairs))
    fires = targets >= 0
    successors = targets[fires]
    ends = np.concatenate(([0], np.cumsum(fires.sum(axis=1))))  # each state's slice of successors
    counts = np.zeros((m, n_types), dtype=np.int64)
    counts[:, mobile] = fires[:, boundary:].reshape(m, len(mobile), n - 1).sum(axis=2)
    del targets, fires
    # 4096 states at a time, so that no list of every state's successors is
    # alive beside their tuples.
    steps: list[tuple[int, ...]] = []
    for a in range(0, m, 4096):
        part = ends[a:a + 4097]
        flat, bounds = successors[part[0]:part[-1]].tolist(), (part - part[0]).tolist()
        steps += [tuple(flat[i:j]) for i, j in zip(bounds, bounds[1:])]
    del successors, ends
    ids = ids.ravel()
    firsts, lasts = (ids // radix ** (n - 1)).tolist(), (ids % radix).tolist()
    return steps, list(zip(firsts, lasts, *counts.T.tolist()))


def _thresholds(ends: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """For each upper end ``e`` of total ``T``, the smallest double
    ``u >= 0`` for which the product ``u * T``, rounded, is at least
    ``e``.  numpy rounds the product as Python does, and rounding is
    monotone, so ``u2 * T >= e`` exactly when ``u2`` is at least the
    threshold."""
    u = ends / totals
    while True:
        low = u * totals < ends
        if not low.any():
            break
        u[low] = np.nextafter(u[low], np.inf)
    while True:
        down = np.nextafter(u, -np.inf)
        high = (down >= 0.0) & (down * totals >= ends)
        if not high.any():
            return u
        u[high] = down[high]


class _MemoTable:
    """The memo walk's table for one model, built for every state at once.

    By canonical state index it holds each state's pick row, that of its
    rate profile, in ``rows``, its successors (:func:`_state_events`) in
    ``successors``, its total rate in ``totals``, and its site values, one
    column per state, in ``values``.

    ``bisect_right(uppers, u2 * total)``, the bisection's pick, is the
    number of the state's upper ends whose threshold (:func:`_thresholds`)
    is at most ``u2``.  The sorted thresholds of every profile below 1 are
    the ``cuts``; they split [0, 1) into cells, and a uniform's cell
    (:meth:`cells`) is the number of cuts at or below it.  Within a cell no
    profile's pick changes, so a profile's pick row, one byte per cell,
    gives the bisection's pick for every uniform.  The last upper end, the
    total, has threshold 1, above every uniform, so no pick passes the last
    event, and a byte holds every pick: wherever the records fit the
    record budget a state has fewer than 256 events.
    """

    def __init__(self, params: ModelParams) -> None:
        sums, delta = _block_sums(params), params.delta
        successors, profiles = _state_events(params)
        number: dict[tuple, int] = {}
        profile_of = [number.setdefault(profile, len(number)) for profile in profiles]
        del profiles  # as the upper ends below: dropped before the rows, to lower the build's peak
        ends = [_profile_ends(profile, sums, delta) for profile in number]
        sizes = [len(uppers) for uppers, _ in ends]
        totals = np.array([total for _, total in ends])
        thresholds = _thresholds(np.array([e for uppers, _ in ends for e in uppers]), np.repeat(totals, sizes))
        del ends
        # Sorted and deduplicated by hand: np.unique imports numpy.ma.
        cuts = np.sort(thresholds[thresholds < 1.0])
        self.cuts = cuts[np.append(True, cuts[1:] != cuts[:-1])]
        self.highest = np.append(self.cuts, 1.0)  # above each cell's uniforms
        # A grid of 2^b equal buckets, more than 8 per cut, and the cell of
        # each bucket's lowest uniform; u * 2^b is exact.
        self.scale = float(1 << (8 * len(self.cuts)).bit_length())
        self.first = np.searchsorted(
            self.cuts, np.arange(self.scale) / self.scale, side="right"
        )
        lowest = np.concatenate(([0.0], self.cuts))  # each cell's lowest uniform
        rows = [
            np.searchsorted(own, lowest, side="right").astype(np.uint8).tobytes()
            for own in np.split(thresholds, np.cumsum(sizes)[:-1])
        ]
        self.rows = [rows[p] for p in profile_of]
        self.successors = successors
        self.totals = totals[profile_of]
        values = np.indices((params.n_types + 1,) * params.n_sites, dtype=np.min_scalar_type(params.n_types))
        self.values = values.reshape(params.n_sites, -1)

    def cells(self, uniforms: np.ndarray) -> list[int]:
        """The cell of each uniform: its bucket's first cell, or for the
        few that lie at or above a cut of their bucket, a binary search."""
        cell = self.first[(uniforms * self.scale).astype(np.intp)]
        late = np.flatnonzero(uniforms >= self.highest[cell])
        if late.size:
            cell[late] = np.searchsorted(self.cuts, uniforms[late], side="right")
        return cell.tolist()


# A process simulates one model at a time.  run_replicas builds the table
# before it forks: the caller walks it for its own share of the replicas,
# and each forked child walks the copy it inherits.
_memo_table = lru_cache(maxsize=1)(_MemoTable)


class _Walk:
    """A walk over the lattice's states: it picks the events and advances
    time, and gives the window pass what it needs.

    :meth:`blocks` walks ``_EVENT_BLOCK`` events at a time; ``_walk(picks)``
    takes one event for each event-pick uniform of the array ``picks`` and
    returns their total rates.  ``changes()`` gives the last block's site
    changes and their cut points by site, ``states()`` the canonical state
    index before each of its events, :meth:`lattice` each site's value now
    and ``t`` the time now.
    """

    t = 0.0

    def blocks(self, events: int):
        """Walk ``events`` events, yielding each block's event times, led
        by the time before its first event, and its holding times
        ``-log1p(-u1) / total``.

        The block's ``log1p`` runs in one numpy call over a reversed view.
        numpy's vectorised loop, which it takes for contiguous and for
        positive-stride arrays, rounds differently from the C library's
        ``log1p`` on some inputs; over a negative stride it runs its
        scalar loop, which calls the C library's ``log1p`` as
        :func:`math.log1p` (and so the tests' reference stepper) does.
        """
        while events:
            block = min(events, _EVENT_BLOCK)
            events -= block
            uniforms = self.rng_random(2 * block)
            totals = self._walk(uniforms[1::2])
            dt = -np.log1p((-uniforms[0::2])[::-1])[::-1]
            dt /= totals
            times = np.cumsum(np.concatenate(([self.t], dt)))  # adds in order, as t += dt
            self.t = float(times[-1])
            yield times, dt


class _MemoWalk(_Walk):
    """The walk over a lattice all of whose states' steps fit the memo.

    It walks on canonical state indices through the model's
    :class:`_MemoTable`, built once per model and process: a block's
    event-pick uniforms are turned into cells in one numpy call, and each
    event is the state's ``successors[row[cell]]``, bitwise the pick of a
    bisection over the state's upper ends.  The block's total rates and
    site changes are gathered afterwards from the states it visited, and
    its path of states is what tracked state occupancy reads.
    """

    def __init__(self, params: ModelParams, rng_random) -> None:
        self.table = _memo_table(params)
        self.rng_random = rng_random
        self.current = 0  # the current state
        self.ids = np.zeros(1, dtype=np.int64)  # the last block's states, led by the one before it

    def lattice(self) -> list[int]:
        """Each site's value now."""
        return self.table.values[:, self.current].tolist()

    def _walk(self, picks: np.ndarray) -> np.ndarray:
        """Keeps the states visited in ``self.ids``, led by the one before."""
        rows, successors = self.table.rows, self.table.successors
        c = self.current
        path = [c, *[c := successors[c][rows[c][cell]] for cell in self.table.cells(picks)]]
        self.current = c
        self.ids = np.fromiter(path, np.int64, len(path))
        return self.table.totals[self.ids[:-1]]

    def changes(self) -> tuple[np.ndarray, ...]:
        """The last block's site changes as :func:`_window_pass` takes them,
        read off the site values of the states it visited, and their N+1
        cut points: site ``i0``'s changes are entries ``cuts[i0]`` to
        ``cuts[i0 + 1] - 1``.  The change of site ``i0`` at event ``j`` is
        entry ``i0 * events + j`` of the site-by-site change mask, so the
        cuts are where the changes pass the multiples of the block length."""
        n, events = len(self.table.values), len(self.ids) - 1
        occ = np.take(self.table.values, self.ids, axis=1)  # column j: the lattice before event j
        changed = np.flatnonzero(occ[:, 1:] != occ[:, :-1])  # site by site, each in time order
        cuts = np.searchsorted(changed, np.arange(n + 1) * events)
        site = np.repeat(np.arange(n), np.diff(cuts))
        before = changed + site  # the flat index in occ of the value before the event
        occ = occ.ravel()
        return changed - site * events, site, occ[before], occ[before + 1], cuts

    def states(self) -> np.ndarray:
        """The canonical state index before each event of the last block:
        the walk's own path."""
        return self.ids[:-1]


class _LatticeWalk(_Walk):
    """The walk over any other lattice: the lattice as a list, and one
    sorted list of active bonds per type.

    Each event toggles at most two bonds in place, each inserted or
    removed as its move dictates.  The total rate is summed first; an
    event past the two boundary blocks finds its hop class by one running
    scan of the same sums in the same order, then its bond by division, so
    no step scans the lattice or a bond list.  A block logs each event's
    total rate and its move, one integer
    ``((a + 1) * (N + 1) + b + 1) * (K + 1) + v`` for a particle of value
    ``v`` going from site ``a`` to site ``b``, with -1 for outside.
    """

    def __init__(self, params: ModelParams, rng_random) -> None:
        self.sums = _block_sums(params)
        # Per type: its active bonds, ascending, and its hop rate.  A type
        # of rate 0.0 keeps its list too; its class has no width.
        self.classes = [([], rate) for rate in params.delta]
        self.occ = [0] * params.n_sites
        self.rng_random = rng_random
        self.moves = np.zeros(0, dtype=np.int64)  # the last block's moves

    def lattice(self) -> list[int]:
        """Each site's value now."""
        return list(self.occ)

    def _walk(self, picks: np.ndarray) -> np.ndarray:
        """Keeps the events' moves in ``self.moves``."""
        occ, classes, sums = self.occ, self.classes, self.sums
        bonds = [None, *(members for members, _ in classes)]  # each value's bond list
        block_total = [block[-1] for block in sums]
        n, radix = len(occ), len(sums)
        source = (n + 1) * radix  # the move's weight of a + 1
        totals: list[float] = []
        moves: list[int] = []
        add_total, add_move = totals.append, moves.append
        # A near site that turns vacant makes its bond active for the far
        # site's particle, or, with the far site vacant, inactive for its
        # own; a near site that fills does the reverse.  Except next to the
        # hopped bond, a bond is found in its list by bisection: the scan of
        # list.remove would grow with N.
        for u2 in picks.tolist():
            start = block_total[occ[0]]  # the site-1 block's end, 0.0 + its sum
            lower = total = start + block_total[occ[-1]]
            for members, rate in classes:
                total = total + len(members) * rate
            x = u2 * total
            if x < lower:  # site a's block; its one bond i0 flips
                a, i0, far = (0, 0, occ[1]) if x < start else (n - 1, n - 2, occ[-2])
                v = occ[a]
                if v:  # a departure
                    occ[a] = 0
                    add_move((a + 1) * source + v)
                    if far:
                        insort(bonds[far], i0)
                    else:
                        del bonds[v][bisect_left(bonds[v], i0)]
                else:  # an arrival
                    lower = 0.0 if a == 0 else start
                    while lower + sums[0][v] <= x:
                        v += 1
                    occ[a] = v = v + 1
                    add_move((a + 1) * radix + v)
                    if far:
                        del bonds[far][bisect_left(bonds[far], i0)]
                    else:
                        insort(bonds[v], i0)
            else:
                # u2 <= 1 - 2**-53, so x rounds below total, the last class
                # end: the scan always finds a class, and never one of rate
                # 0.0, which has no width.
                for k0, (members, rate) in enumerate(classes):
                    upper = lower + len(members) * rate
                    if x < upper:
                        break
                    lower = upper
                j = min(int((x - lower) / rate), len(members) - 1)
                while lower + j * rate > x:
                    j -= 1
                while lower + (j + 1) * rate <= x:
                    j += 1
                i0 = members[j]
                # The hopped bond stays active; the bonds beyond its two ends
                # flip, the right one first, which keeps i0 at index j.  In
                # the mover's own list they sit right next to it.
                if occ[i0]:  # site i0 turns vacant and site i0 + 1 fills
                    a, b = i0, i0 + 1
                    if i0 < n - 2:
                        if far := occ[i0 + 2]:
                            del bonds[far][bisect_left(bonds[far], i0 + 1)]
                        else:
                            members.insert(j + 1, i0 + 1)
                    if i0:
                        if far := occ[i0 - 1]:
                            insort(bonds[far], i0 - 1)
                        else:
                            del members[j - 1]
                else:  # site i0 + 1 turns vacant and site i0 fills
                    a, b = i0 + 1, i0
                    if i0 < n - 2:
                        if far := occ[i0 + 2]:
                            insort(bonds[far], i0 + 1)
                        else:
                            del members[j + 1]
                    if i0:
                        if far := occ[i0 - 1]:
                            del bonds[far][bisect_left(bonds[far], i0 - 1)]
                        else:
                            members.insert(j, i0 - 1)
                occ[a], occ[b] = 0, k0 + 1
                add_move((a + 1) * source + (b + 1) * radix + k0 + 1)
            add_total(total)
        self.moves = np.array(moves, dtype=np.int64)
        return np.array(totals)

    def changes(self) -> tuple[np.ndarray, ...]:
        """The last block's site changes as :func:`_window_pass` takes them,
        decoded from its moves, and their N+1 cut points: site ``i0``'s
        changes are entries ``cuts[i0]`` to ``cuts[i0 + 1] - 1``, found in
        the changes once sorted by site."""
        radix, n, moves = len(self.sums), len(self.occ), self.moves
        v = moves % radix
        # Two entries per event, the site left then the site entered, and
        # the value each of them held before.
        sites = np.stack(np.divmod(moves // radix, n + 1), axis=1).ravel() - 1
        old = np.stack((v, np.zeros_like(v)), axis=1).ravel()
        kept = np.flatnonzero(sites >= 0)
        # A stable sort of integers of 16 bits or fewer is a radix sort.
        kept = kept[np.argsort(sites[kept].astype(np.min_scalar_type(n)), kind="stable")]
        event, site = kept // 2, sites[kept]
        return event, site, old[kept], v[event] - old[kept], np.searchsorted(site, np.arange(n + 1))

    def states(self) -> np.ndarray:
        """The canonical state index before each event of the last block,
        rebuilt from its moves back from the lattice now.  The index has
        site 1 as its most significant digit; only a tracked run asks for
        it, whose at most ``STATE_TRACKING_LIMIT`` states keep the weights
        within int64."""
        radix, n, moves = len(self.sums), len(self.occ), self.moves
        # The weight of site i0 at i0 + 1, and 0 at 0 for outside.
        weight = np.concatenate(([0], radix ** np.arange(n - 1, -1, -1, dtype=np.int64)))
        source, target = np.divmod(moves // radix, n + 1)  # each move's sites, plus one
        step = (weight[target] - weight[source]) * (moves % radix)  # each event's change of index
        return int(np.dot(self.occ, weight[1:])) - np.cumsum(step[::-1])[::-1]


def _add_in_order(totals: np.ndarray, index: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """``totals`` after ``totals[index[i]] += terms[i]`` for each i in
    turn: ``np.bincount`` adds its weights in order, the totals first."""
    cells = len(totals)
    return np.bincount(
        np.concatenate((np.arange(cells), index)), np.concatenate((totals, terms)), minlength=cells
    )


def _window_pass(walk: _Walk, params: ModelParams, config: SimConfig, m: int) -> SimStats:
    """The statistics of ``walk``'s measurement window, with state
    occupancy tracked over ``m`` states when ``m`` is nonzero.

    Each block of the window gives its event times, its holding times and
    its site changes: arrays (event, site, old value, new value), site by
    site and each site's in time order, and the N+1 cut points of those
    arrays, site ``i0``'s changes being entries ``cuts[i0]`` to
    ``cuts[i0 + 1] - 1``.  Tracked state occupancy reads the state before
    each event off the walk (:meth:`_MemoWalk.states`,
    :meth:`_LatticeWalk.states`).  The statistics come from them in one
    numpy pass per block, bitwise as one event at a time: each running
    sum takes its additions in time order.
    """
    n, n_types = params.n_sites, params.n_types
    radix = n_types + 1
    start = walk.lattice()
    t_start = walk.t
    start_counts = np.bincount(start, minlength=radix)[1:].astype(np.int64)
    occupancy = np.zeros(n * radix)  # site i0's time in value v at i0 * radix + v
    last_change = np.full(n, t_start)
    arrivals = np.zeros(radix, dtype=np.int64)  # by particle value
    departures = np.zeros(radix, dtype=np.int64)
    # Each block's completed sojourns, in time order, and their particles' values.
    stay_blocks, kind_blocks = [np.zeros(0)], [np.zeros(0, dtype=np.uint8)]
    # Particles never pass each other, so from site 1 to site N they hold
    # consecutive slots lo, ..., hi - 1: an arrival at site 1 takes slot
    # lo - 1 and one at site N slot hi; a departure from site 1 frees slot
    # lo and one from site N slot hi - 1.  ``arrived`` holds their arrival
    # times, NaN for those present when the window opened.
    lo, hi = 0, int(start_counts.sum())
    arrived = np.full(hi, np.nan)
    state_occ = np.zeros(m) if m else None
    hit = np.zeros(_EVENT_BLOCK, dtype=bool)  # the events that change a boundary site's neighbour

    for times, dt in walk.blocks(config.max_events - config.warmup_events):
        event, site, old, new, cuts = walk.changes()
        when = times[event + 1]

        if state_occ is not None:
            state_occ = _add_in_order(state_occ, walk.states(), dt)

        # Each site's time in each value, added when the site changes.
        moved = np.flatnonzero(cuts[1:] != cuts[:-1])  # the sites that changed
        since = np.concatenate(([0.0], when[:-1]))
        since[cuts[moved]] = last_change[moved]
        occupancy = _add_in_order(occupancy, site * radix + old, when - since)
        last_change[moved] = when[cuts[moved + 1] - 1]

        # Arrivals and departures: the changes at site 1, then at site N,
        # whose event changes no neighbouring site (a hop changes two).  On
        # two sites each boundary site is the other's neighbour.
        io = []
        for a, b in ((0, 1), (n - 1, n - 2)):
            near = event[cuts[b]:cuts[b + 1]]
            hit[near] = True
            io.append(cuts[a] + np.flatnonzero(~hit[event[cuts[a]:cuts[a + 1]]]))
            hit[near] = False
        at_left = len(io[0])
        io = np.concatenate(io)
        pop = old[io] != 0
        value = old[io] + new[io]  # one of the two is 0
        counts = np.bincount(value + radix * pop, minlength=2 * radix)
        arrivals += counts[:radix]
        departures += counts[radix:]
        sign = 1 - 2 * pop.astype(np.int64)  # +1 for an arrival, -1 for a departure
        lo_after = lo - np.cumsum(sign[:at_left])
        hi_after = hi + np.cumsum(sign[at_left:])
        slot = np.concatenate((lo_after - pop[:at_left], hi_after - 1 + pop[at_left:]))
        in_time = np.argsort(event[io], kind="stable")
        io, pop, value, slot = io[in_time], pop[in_time], value[in_time], slot[in_time]

        # In each slot arrivals and departures alternate, so in slot order,
        # then time order, a departure directly follows the arrival of the
        # particle it removes.
        slots = np.concatenate((np.arange(lo, hi), slot))
        at = np.concatenate((arrived, when[io]))
        # slots is never empty: on an empty lattice the next event is an arrival.
        low = slots.min()
        span = slots - low
        order = np.argsort(span.astype(np.min_scalar_type(span.max())), kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        leaving = np.flatnonzero(pop)  # the departures, in time order
        gone = len(arrived) + leaving  # their places in slots and at
        stays, kinds = at[gone] - at[order[rank[gone] - 1]], value[leaving]
        done = ~np.isnan(stays)  # NaN: a particle present when the window opened
        stay_blocks.append(stays[done])
        kind_blocks.append(kinds[done])
        lo = int(lo_after[-1]) if at_left else lo
        hi = int(hi_after[-1]) if len(hi_after) else hi
        # Each occupied slot's last entry, in slot order, is its particle's arrival.
        last = np.cumsum(np.bincount(span)) - 1
        arrived = at[order[last[lo - low:hi - low]]]

    t = walk.t
    end = walk.lattice()
    occupancy[np.arange(n) * radix + end] += t - last_change
    stays, kinds = np.concatenate(stay_blocks), np.concatenate(kind_blocks)
    return SimStats(
        n_sites=n,
        n_types=n_types,
        total_time=t - t_start,
        site_occupancy_time=occupancy.reshape(n, radix),
        arrivals_by_type=arrivals[1:],
        departures_by_type=departures[1:],
        start_counts_by_type=start_counts,
        end_counts_by_type=np.bincount(end, minlength=radix)[1:].astype(np.int64),
        completed_sojourns=[stays[kinds == k] for k in range(1, radix)],
        event_count=config.max_events,
        state_occupancy_time=state_occ,
    )


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

    A walk picks the events and advances time; :func:`_memo_fits` chooses
    it once per run from the record budget alone.  :class:`_MemoWalk`
    walks on canonical state indices through the model's one table
    (:class:`_MemoTable`), built on the first replica of a model in a
    process and kept (a child forked by :func:`run_replicas` walks the
    caller's, which it inherits), and picks each event from its state's
    pick row, bitwise the bisection over its upper ends;
    :class:`_LatticeWalk` keeps each type's active bonds as a sorted list,
    toggles at most two bonds in place per event, and picks the class by
    one running scan of the class ends and the member by division.  Both
    use the same upper-end expressions, so they pick the same events.  The
    warm-up is the bare walk; :func:`_window_pass` then takes the
    statistics from what the walk gives for each block of the window.
    """
    m = 0
    if track_state_occupancy:
        m = state_space_size(params)
        if m > STATE_TRACKING_LIMIT:
            raise ValueError(
                f"state occupancy tracking needs a dense vector of {m} entries; "
                f"limit is {STATE_TRACKING_LIMIT}"
            )
    walk_type = _MemoWalk if _memo_fits(params) else _LatticeWalk
    walk = walk_type(params, replica_rng(config.seed, replica_index).random)
    for _ in walk.blocks(config.warmup_events):
        pass
    return _window_pass(walk, params, config, m)


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
    run on ``W = min(replicas, usable CPUs)`` workers when that is at least
    two and the run has at least ``_POOL_MIN_EVENTS`` events in all;
    otherwise one after another in this process.  The calling process is
    worker 0 and forks the other W - 1; worker ``w`` runs replicas ``w``,
    ``w + W``, ``w + 2W``, ... (see :func:`_forked_replicas`).

    Workers are forked, not spawned: a fork inherits the imported modules,
    and the model's memo table where the lattice fits the record budget,
    which is built here before the fork, while a spawned worker would
    import numpy and sepsim again before its first event.  The sampler
    starts no threads and takes no locks, and the children are forked only
    while the caller runs no other thread, so the fork is safe; in a
    threaded caller, or on a platform without ``fork``, the replicas run in
    process.

    Serial against pooled on a 2-vCPU virtual machine, N=5/K=2 with state
    tracking: the range of the medians of four sets of 11 alternating
    calls, and the calls of each set in which the forks were faster.

    ==================  =========  =========  ==============
    replicas x events   serial ms  pooled ms  forks faster
    ==================  =========  =========  ==============
    2 x 2.5*10^4        12-19      15-19      11, 0, 0, 10
    2 x 5*10^4          21-34      24-46      6, 0, 0, 9
    2 x 10^5            49-69      42-53      11, 7, 5, 11
    2 x 2*10^5          92-127     72-77      11, 11, 10, 11
    4 x 2.5*10^4        22-34      21-27      10, 11, 10, 11
    4 x 5*10^4          43-67      36-43      10, 11, 10, 11
    4 x 10^5            98-126     71-75      11 in each
    4 x 2*10^5          212-269    136-145    11 in each
    ==================  =========  =========  ==============
    """
    workers = _pool_workers(config, _usable_cpus())
    # A fork copies only the calling thread, so a lock another thread holds
    # would stay locked in the child.
    if workers and hasattr(os, "fork") and threading.active_count() == 1:
        if _memo_fits(params):
            _memo_table(params)  # built once, here: the children inherit it
        return _forked_replicas(params, config, workers, track_state_occupancy)
    return [
        run_replica(params, config, index, track_state_occupancy=track_state_occupancy)
        for index in range(config.replicas)
    ]


def _forked_replicas(
    params: ModelParams, config: SimConfig, workers: int, track_state_occupancy: bool
) -> list[SimStats]:
    """The replicas of :func:`run_replicas` on ``workers`` workers: this
    process and ``workers - 1`` forked children.

    Each child sends its replicas, pickled, or the exception it raised,
    through its own pipe.  The caller runs its share meanwhile, then reads
    the children's pipes in worker order and reaps each child; whatever
    happens, no child outlives the call.
    """
    import signal

    def share(worker: int) -> list[SimStats]:
        return [
            run_replica(params, config, index, track_state_occupancy=track_state_occupancy)
            for index in range(worker, config.replicas, workers)
        ]

    pids: list[int] = []  # the children, in worker order
    pipes: list[int] = []  # the read end of each child's pipe
    reaped = 0  # children waited for, in worker order
    try:
        for worker in range(1, workers):
            read, write = os.pipe()
            pipes.append(read)
            try:
                pid = os.fork()
                if not pid:
                    _child(write, share, worker)
                pids.append(pid)
            finally:
                os.close(write)  # the child's end; a child never gets here
        shares = [share(0)]
        for worker, (pid, read) in enumerate(zip(pids, pipes), start=1):
            with open(read, "rb", closefd=False) as pipe:
                sent = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped += 1
            if status:
                raise RuntimeError(
                    f"replica worker {worker} exited with status {status} before sending its replicas"
                )
            result = pickle.loads(sent)  # bytes written by a child of this process
            if isinstance(result, BaseException):
                raise result
            shares.append(result)
    finally:
        for pid in pids[reaped:]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for read in pipes:
            os.close(read)
    return [shares[index % workers][index // workers] for index in range(config.replicas)]


def _child(write: int, share, worker: int) -> NoReturn:
    """Run in a forked child: write ``share(worker)``, pickled, or the
    exception it raised, to the pipe end ``write``, and exit.

    An exception that does not survive pickling goes as a ``RuntimeError``
    carrying its traceback.  The child leaves through ``os._exit``, so it
    runs no atexit handler and flushes no stdio buffer it inherited; its
    status is 0 only once the whole result is written.
    """
    status = 1
    try:
        try:
            result = share(worker)
        except Exception as error:
            try:
                result = pickle.loads(pickle.dumps(error))
            except Exception:
                import traceback

                text = "".join(traceback.format_exception(type(error), error, error.__traceback__))
                result = RuntimeError(f"replica worker {worker} raised:\n{text}")
        with open(write, "wb", closefd=False) as pipe:
            pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _fresh(value):
    """A copy of a :class:`SimStats` field's value that shares only its
    immutable parts, the numbers."""
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, list):  # the sojourns
        return [np.array(item, dtype=np.float64) for item in value]
    return value


def merge_replicas(stats: Sequence[SimStats]) -> SimStats:
    """Pool replica statistics: times and counts add, sojourns pool.

    The result is independent of the input order: ``total_time`` is an
    exact sum (``fsum``); the occupancy arrays add each element's values in
    sorted order, which rounds but does not depend on the order of the
    inputs; and each type's pooled sojourns are sorted.  Merging a single
    replica returns an independent copy.
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
        np.sort(np.concatenate([s.completed_sojourns[k0] for s in stats]))
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
