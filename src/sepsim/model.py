"""Lattice model: states, events, and transition rates.

A one-dimensional lattice of ``n_sites`` sites holds at most one particle
per site; particles carry a type ``1..n_types``.  A type-k particle enters
a *vacant* boundary site (leftmost or rightmost) at rate ``alpha[k-1]``,
leaves from an occupied boundary site at rate ``beta[k-1]``, and hops to an
adjacent vacant site at rate ``delta[k-1]``.  Hop rates do not depend on
the direction, and arrival/departure rates are the same at both ends, so
the dynamics are symmetric.  On a two-site lattice both sites are
boundary sites and the one bond joins them; ``delta[k-1] == 0`` means no
type-k hop across it.

Sites and particle types are 1-based throughout the public API.  States
are plain tuples, every operation here is a pure function, and all values
are immutable, so they can be shared freely between threads or processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import isfinite
from numbers import Real
from typing import Iterator

__all__ = [
    "VACANT",
    "EventKind",
    "Event",
    "EventNotEnabledError",
    "ModelParams",
    "LatticeState",
    "state_space_size",
    "encode",
    "decode",
    "enumerate_states",
    "enabled_events",
    "apply_event",
]

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


def _rate_vector(name: str, values, n_types: int, *, allow_zero: bool) -> tuple[float, ...]:
    try:
        items = tuple(values)
        if any(isinstance(v, bool) or not isinstance(v, Real) for v in items):
            raise TypeError
        # An integer too large for a float overflows here.
        vec = tuple(float(v) for v in items)
    except (TypeError, OverflowError):
        raise ValueError(f"{name} must be a list of {n_types} numbers, got {values!r}") from None
    if len(vec) != n_types:
        raise ValueError(f"{name} must have exactly {n_types} entries, got {len(vec)}")
    for v in vec:
        if not isfinite(v):
            raise ValueError(f"{name} entries must be finite, got {v}")
        if v < 0.0 or (v == 0.0 and not allow_zero):
            bound = "non-negative" if allow_zero else "positive"
            raise ValueError(f"{name} entries must be {bound}, got {v}")
    return vec


@dataclass(frozen=True)
class ModelParams:
    """Immutable model description.

    ``alpha`` (arrival), ``beta`` (departure) and ``delta`` (hop) each hold
    one rate per particle type.  Arrival and departure rates must be
    strictly positive; hop rates may be zero (immobile type).
    """

    n_sites: int
    n_types: int
    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    delta: tuple[float, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n_sites, int) or isinstance(self.n_sites, bool) or self.n_sites < 2:
            raise ValueError(f"n_sites must be an integer >= 2, got {self.n_sites!r}")
        if not isinstance(self.n_types, int) or isinstance(self.n_types, bool) or self.n_types < 1:
            raise ValueError(f"n_types must be an integer >= 1, got {self.n_types!r}")
        object.__setattr__(self, "alpha", _rate_vector("alpha", self.alpha, self.n_types, allow_zero=False))
        object.__setattr__(self, "beta", _rate_vector("beta", self.beta, self.n_types, allow_zero=False))
        object.__setattr__(self, "delta", _rate_vector("delta", self.delta, self.n_types, allow_zero=True))


def _validate_state(state: LatticeState, params: ModelParams) -> None:
    if len(state) != params.n_sites:
        raise ValueError(f"state has {len(state)} sites, model has {params.n_sites}")
    for v in state:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v <= params.n_types:
            raise ValueError(f"site value {v!r} outside 0..{params.n_types}")


def state_space_size(params: ModelParams) -> int:
    """Number of distinct lattice states, (n_types + 1) ** n_sites.

    Computed with exact integer arithmetic, so it never overflows; size
    limits are enforced by the exact engine where dense structures are
    actually allocated.
    """
    return (params.n_types + 1) ** params.n_sites


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
    """State whose canonical index is ``index``.  Inverse of :func:`encode`."""
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
