"""Reversibility checks: pairwise balance, reversed rates, cycle criterion,
and the hop-rate perturbation that breaks them.

The stationary lattice process satisfies detailed balance: every directed
transition rate weighted by the stationary probability of its source
equals the reverse rate weighted by the target's probability, for general
arrival/departure rates.  Consequently the time-reversed process has the
same rates as the forward one.  This module computes the residual of each
statement from a generator (the cycle criterion needs no distribution),
and :func:`perturb_hop_rate` gives the negative control: a generator with
one directed hop rate scaled, on which every one of them fails.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import LatticeState, decode
from .exact import (
    EDGE_CLASS_NAMES,
    EDGE_HOP,
    Generator,
    balance_residuals,
    reverse_rates,
)

__all__ = [
    "BalanceReport",
    "NotStationaryError",
    "detailed_balance_residual",
    "reversed_generator",
    "kolmogorov_cycle_residual",
    "perturb_hop_rate",
]

# Largest global-balance residual for which reversed_generator accepts a
# distribution as stationary.
_STATIONARITY_TOL = 1e-8


class NotStationaryError(ValueError):
    """The supplied distribution is not stationary for the generator."""


@dataclass(frozen=True)
class BalanceReport:
    """Pairwise-balance residuals |p_i * rate(i->j) - p_j * rate(j->i)|.

    ``worst_pair`` holds the decoded ordered state pair attaining the
    maximum; ``by_class`` breaks the maximum down per transition class.
    """

    max_abs_residual: float
    worst_pair: tuple[LatticeState, LatticeState]
    by_class: dict[str, float]


def detailed_balance_residual(gen: Generator, dist: np.ndarray) -> BalanceReport:
    """Evaluate pairwise balance of ``dist`` over every stored edge."""
    dist = np.asarray(dist, dtype=np.float64)
    if dist.shape != (gen.dim,):
        raise ValueError(f"distribution has shape {dist.shape}, expected ({gen.dim},)")
    residuals = np.abs(dist[gen.rows] * gen.rates - dist[gen.cols] * reverse_rates(gen))
    worst = int(residuals.argmax())
    pair = (decode(int(gen.rows[worst]), gen.params), decode(int(gen.cols[worst]), gen.params))
    by_class = {}
    for code, name in EDGE_CLASS_NAMES.items():
        mask = gen.kinds == code
        by_class[name] = float(residuals[mask].max()) if mask.any() else 0.0
    return BalanceReport(float(residuals.max()), pair, by_class)


def reversed_generator(gen: Generator, dist: np.ndarray) -> Generator:
    """Rates of the time-reversed process under stationary ``dist``.

    The reversed rate of i -> j is ``dist[j] * rate(j -> i) / dist[i]``;
    the support mirrors the forward support.  ``dist`` must be strictly
    positive and stationary for ``gen`` (balance residual at most
    1e-8); both are checked rather than assumed.
    """
    dist = np.asarray(dist, dtype=np.float64)
    if dist.shape != (gen.dim,):
        raise ValueError(f"distribution has shape {dist.shape}, expected ({gen.dim},)")
    if np.any(dist <= 0.0):
        raise ValueError("distribution must be strictly positive everywhere")
    residual = float(np.abs(balance_residuals(gen, dist)).max())
    if residual > _STATIONARITY_TOL:
        raise NotStationaryError(
            f"distribution is not stationary: balance residual {residual:.3e} "
            f"> {_STATIONARITY_TOL:.1e}"
        )
    return replace(gen, rates=dist[gen.cols] * reverse_rates(gen) / dist[gen.rows])


def kolmogorov_cycle_residual(gen: Generator) -> float:
    """Worst relative mismatch of forward vs reverse rate products over
    every cycle of the transition graph.

    Zero (up to rounding) characterises a reversible chain.  Kelly's
    tree-potential construction (Reversibility and Stochastic Networks,
    1979, section 1.5): with ``L = log(rate(i->j) / rate(j->i))`` on each
    edge, a spanning-tree potential ``phi`` makes ``L_ij - (phi_j - phi_i)``
    the log rate-product ratio of the fundamental cycle that edge closes.
    Those cycles span all cycles, so the check is exact and needs no
    stationary distribution.  The potential and this mismatch are computed
    once per generator (:attr:`~sepsim.exact.Generator.tree_potential`),
    and :func:`~sepsim.exact.solve_stationary` reads the same ones.  Raises
    :class:`ValueError` when the model is reducible.
    """
    return gen.tree_potential.mismatch


def perturb_hop_rate(gen: Generator) -> Generator:
    """Copy of ``gen`` with its first directed hop rate doubled.

    Scaling a single direction breaks the hop-rate symmetry, producing a
    generator whose stationary distribution is no longer the product form;
    used as a negative control for the balance and cycle checks.
    """
    hop_edges = np.nonzero(gen.kinds == EDGE_HOP)[0]
    if hop_edges.size == 0:
        raise ValueError("generator has no hop transitions to perturb")
    rates = gen.rates.copy()
    rates[hop_edges[0]] *= 2.0
    return replace(gen, rates=rates)
