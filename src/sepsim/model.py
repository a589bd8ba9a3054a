"""Lattice model: parameters, states and their canonical index.

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
from math import isfinite
from numbers import Real

__all__ = [
    "ModelParams",
    "LatticeState",
    "state_space_size",
    "decode",
]

# A lattice state: tuple of length n_sites, entry 0 for a vacant site and
# k in 1..n_types for a type-k particle.  Index 0 of the tuple is site 1.
LatticeState = tuple[int, ...]


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


def state_space_size(params: ModelParams) -> int:
    """Number of distinct lattice states, (n_types + 1) ** n_sites.

    Computed with exact integer arithmetic, so it never overflows; size
    limits are enforced by the exact engine where dense structures are
    actually allocated.
    """
    return (params.n_types + 1) ** params.n_sites


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
