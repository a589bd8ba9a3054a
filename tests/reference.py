"""The hand-written reference model and stepper the tests check sepsim against.

The generator and the balance certificate read the dynamics off one list
of event families, ``sepsim.exact._event_pairs``, the sampler's memo table
reads them through the generator's edges, and the sampler's lattice walk
keeps its own bond lists.  The code here spells the rules out state by
state, one event at a time, with neither, so a test that compares them
cross-checks the generator, the memo table and the lattice walk:

- the reference model: states as tuples (:data:`LatticeState`),
  :class:`Event` values, the events enabled in a state
  (:func:`enabled_events`), the successor an event leads to
  (:func:`apply_event`), every state in canonical order
  (:func:`enumerate_states`), a state's canonical index (:func:`encode`)
  and the state of an index (:func:`decode`);
- the reference stepper, :func:`sample_next_event`, one step of the direct
  method in the sampler's event order and on its stream, and that order
  of a state's events (:func:`reference_order`);
- :func:`joint_from_marginals`, the product form built from the site
  marginals, and :func:`to_dense`, a generator as a dense matrix;
- graph searches of a generator's support, the references for the
  irreducibility lemma and its spanning tree: :func:`is_irreducible`, a
  directed strong-component search, and :func:`search_potential`, Kelly's
  potential along a breadth-first tree.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from math import log1p
from typing import Iterator

import numpy as np

from sepsim.exact import Generator, site_marginal
from sepsim.model import ModelParams, state_space_size

VACANT = 0

# A lattice state: tuple of length n_sites, entry 0 for a vacant site and
# k in 1..n_types for a type-k particle.  Index 0 of the tuple is site 1.
LatticeState = tuple[int, ...]


class EventKind(Enum):
    """Kinds of atomic transitions; hops are split by direction."""

    ARRIVAL = "arrival"
    DEPARTURE = "departure"
    HOP_LEFT = "hop_left"
    HOP_RIGHT = "hop_right"


class EventNotEnabledError(ValueError):
    """An event was applied to a state in which it cannot fire."""


@dataclass(frozen=True)
class Event:
    """One atomic transition.

    ``site`` and ``ptype`` are 1-based.  Arrivals and departures only ever
    occur at a boundary site; a left hop needs ``site >= 2`` and a right
    hop needs ``site <= n_sites - 1``.  Those constraints depend on the
    lattice length and are enforced where the length is known
    (:func:`enabled_events`, :func:`apply_event`).
    """

    kind: EventKind
    site: int
    ptype: int


def _validate_state(state: LatticeState, params: ModelParams) -> None:
    if len(state) != params.n_sites:
        raise ValueError(f"state has {len(state)} sites, model has {params.n_sites}")
    for v in state:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v <= params.n_types:
            raise ValueError(f"site value {v!r} outside 0..{params.n_types}")


def encode(state: LatticeState, params: ModelParams) -> int:
    """Canonical index of a state: base-(n_types+1) digits, site 1 most
    significant.  Inverse of :func:`decode`."""
    _validate_state(state, params)
    base = params.n_types + 1
    index = 0
    for v in state:
        index = index * base + v
    return index


def decode(index: int, params: ModelParams) -> LatticeState:
    """State whose canonical index is ``index``: base-(n_types+1) digits,
    site 1 most significant."""
    size = state_space_size(params)
    if not isinstance(index, int) or isinstance(index, bool) or not 0 <= index < size:
        raise ValueError(f"state index {index!r} outside 0..{size - 1}")
    base = params.n_types + 1
    digits = []
    for _ in range(params.n_sites):
        index, v = divmod(index, base)
        digits.append(v)
    return tuple(reversed(digits))


def enumerate_states(params: ModelParams) -> Iterator[LatticeState]:
    """Yield every state in canonical index order (desk-scale models only)."""
    for index in range(state_space_size(params)):
        yield decode(index, params)


def enabled_events(state: LatticeState, params: ModelParams) -> list[tuple[Event, float]]:
    """All transitions with positive rate out of ``state``.

    Arrivals fire at a vacant boundary site (one event per type), a
    departure fires at an occupied boundary site, and a hop fires when a
    mobile particle neighbours a vacant site.  Events whose rate is zero
    (``delta[k-1] == 0``) are omitted, and no event is listed twice.

    The returned order is deterministic: the site-1 block, then the
    site-N block, then hop events by ascending site with the left hop
    before the right one.  The samplers' event order is their own (see
    ``sepsim.simulate.RNG_SCHEME``).
    """
    _validate_state(state, params)
    n = params.n_sites
    events: list[tuple[Event, float]] = []
    for site in (1, n):
        v = state[site - 1]
        if v == VACANT:
            for k in range(1, params.n_types + 1):
                events.append((Event(EventKind.ARRIVAL, site, k), params.alpha[k - 1]))
        else:
            events.append((Event(EventKind.DEPARTURE, site, v), params.beta[v - 1]))
    for i0 in range(n):
        v = state[i0]
        if v == VACANT:
            continue
        rate = params.delta[v - 1]
        if rate <= 0.0:
            continue
        if i0 >= 1 and state[i0 - 1] == VACANT:
            events.append((Event(EventKind.HOP_LEFT, i0 + 1, v), rate))
        if i0 <= n - 2 and state[i0 + 1] == VACANT:
            events.append((Event(EventKind.HOP_RIGHT, i0 + 1, v), rate))
    return events


def apply_event(state: LatticeState, event: Event) -> LatticeState:
    """Successor state after ``event`` fires.

    Checks the structural enabling conditions (site in range, boundary
    placement for arrivals/departures, matching occupant type, vacant hop
    target) and raises :class:`EventNotEnabledError` when they fail.
    Rate-level conditions that need the model parameters (zero hop rates)
    are the caller's responsibility.
    """
    n = len(state)
    site, ptype = event.site, event.ptype
    if not 1 <= site <= n:
        raise EventNotEnabledError(f"site {site} outside 1..{n}")
    if ptype < 1:
        raise EventNotEnabledError(f"particle type {ptype} must be >= 1")
    i0 = site - 1
    occupant = state[i0]
    cells = list(state)
    if event.kind is EventKind.ARRIVAL:
        if site not in (1, n):
            raise EventNotEnabledError(f"arrival at interior site {site}")
        if occupant != VACANT:
            raise EventNotEnabledError(f"arrival at occupied site {site}")
        cells[i0] = ptype
    elif event.kind is EventKind.DEPARTURE:
        if site not in (1, n):
            raise EventNotEnabledError(f"departure from interior site {site}")
        if occupant != ptype:
            raise EventNotEnabledError(f"site {site} holds {occupant}, not type {ptype}")
        cells[i0] = VACANT
    elif event.kind is EventKind.HOP_LEFT:
        if site < 2:
            raise EventNotEnabledError("left hop needs site >= 2")
        if occupant != ptype:
            raise EventNotEnabledError(f"site {site} holds {occupant}, not type {ptype}")
        if state[i0 - 1] != VACANT:
            raise EventNotEnabledError(f"left hop target site {site - 1} is occupied")
        cells[i0] = VACANT
        cells[i0 - 1] = ptype
    elif event.kind is EventKind.HOP_RIGHT:
        if site > n - 1:
            raise EventNotEnabledError(f"right hop needs site <= {n - 1}")
        if occupant != ptype:
            raise EventNotEnabledError(f"site {site} holds {occupant}, not type {ptype}")
        if state[i0 + 1] != VACANT:
            raise EventNotEnabledError(f"right hop target site {site + 1} is occupied")
        cells[i0] = VACANT
        cells[i0 + 1] = ptype
    else:  # pragma: no cover - enum is exhaustive
        raise EventNotEnabledError(f"unknown event kind {event.kind!r}")
    return tuple(cells)


def sample_next_event(
    state: LatticeState, params: ModelParams, rng: np.random.Generator
) -> tuple[float, Event]:
    """One step of the direct method from ``state``: the reference stepper.

    Consumes exactly two uniform doubles from ``rng``: the holding time is
    ``-log1p(-u1) / total_rate`` and the event is the first, in the order
    of ``sepsim.simulate.RNG_SCHEME["event_order"]``, whose upper end exceeds
    ``u2 * total_rate``.  Deterministic given the stream position, and
    :func:`sepsim.simulate.run_replica` picks bitwise the same event from
    the same state.
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


_BOUNDARY_KINDS = (EventKind.ARRIVAL, EventKind.DEPARTURE)


def reference_order(state: LatticeState, params: ModelParams) -> list[Event]:
    """The enabled events of ``state`` in :func:`sample_next_event`'s order:
    the boundary events as :func:`enabled_events` lists them, then the
    hops, stably by type."""
    events = [event for event, _ in enabled_events(state, params)]
    boundary = [event for event in events if event.kind in _BOUNDARY_KINDS]
    hops = [event for event in events if event not in boundary]
    return boundary + sorted(hops, key=lambda event: event.ptype)


def joint_from_marginals(params: ModelParams) -> np.ndarray:
    """Joint distribution assembled as the product of the site marginals.

    Algebraically identical to :func:`sepsim.exact.product_form`; computed
    through the normalized marginals instead of the global constant so the
    identity can be asserted numerically.
    """
    marginal = site_marginal(params)
    probs = marginal
    for _ in range(params.n_sites - 1):
        probs = np.multiply.outer(probs, marginal).ravel()
    return probs


def to_dense(gen: Generator) -> np.ndarray:
    """Full dense generator including the implied diagonal."""
    q = np.zeros((gen.dim, gen.dim))
    q[gen.rows, gen.cols] = gen.rates
    q[np.arange(gen.dim), np.arange(gen.dim)] = -gen.exit_rates()
    return q


def is_irreducible(gen: Generator) -> bool:
    """True when the transition graph is strongly connected, by scipy's
    graph search."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    adjacency = sp.csr_matrix(
        (np.ones(gen.rows.size, dtype=np.int8), (gen.rows, gen.cols)), shape=(gen.dim, gen.dim)
    )
    n_components, _ = connected_components(adjacency, directed=True, connection="strong")
    return n_components == 1


def search_potential(gen: Generator) -> np.ndarray:
    """Kelly's potential along a breadth-first spanning tree of the support
    from the empty lattice (index 0): ``phi_j = phi_i + log(rate(i->j) /
    rate(j->i))`` on each tree edge, zero at the root and NaN at a state
    the search does not reach.  Its own stable sort of the sources lists
    each state's edges side by side, whatever order the generator keeps."""
    order = np.argsort(gen.rows, kind="stable")
    log_ratio = (np.log(gen.rates) - np.log(gen.rates[gen.reverse]))[order].tolist()
    cols = gen.cols[order].tolist()
    starts = np.searchsorted(gen.rows[order], np.arange(gen.dim + 1)).tolist()
    phi = [None] * gen.dim
    phi[0] = 0.0
    frontier = [0]
    while frontier:
        reached = []
        for i in frontier:
            for e in range(starts[i], starts[i + 1]):
                if phi[cols[e]] is None:
                    phi[cols[e]] = phi[i] + log_ratio[e]
                    reached.append(cols[e])
        frontier = reached
    return np.array([np.nan if v is None else v for v in phi])
