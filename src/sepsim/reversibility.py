"""Reversibility checks: pairwise balance, reversed rates, cycle criterion.

The stationary lattice process satisfies detailed balance: every directed
transition rate weighted by the stationary probability of its source
equals the reverse rate weighted by the target's probability, for general
arrival/departure rates.  Consequently the time-reversed process has the
same rates as the forward one.  This module computes the residuals of
those statements so they can be asserted (or, for deliberately broken
generators, shown to fail).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components

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
    "uniformity_check",
    "perturb_hop_rate",
]


class NotStationaryError(ValueError):
    """The supplied distribution is not stationary for the generator."""


@dataclass(frozen=True)
class BalanceReport:
    """Pairwise-balance residuals |p_i * rate(i->j) - p_j * rate(j->i)|.

    ``worst_pair`` holds the ordered state pair attaining the maximum
    (decoded when the generator knows its model, state indices otherwise);
    ``by_class`` breaks the maximum down per transition class.
    """

    max_abs_residual: float
    worst_pair: tuple[LatticeState, LatticeState] | tuple[int, int] | None
    by_class: dict[str, float]


def detailed_balance_residual(gen: Generator, dist: np.ndarray) -> BalanceReport:
    """Evaluate pairwise balance of ``dist`` over every stored edge."""
    dist = np.asarray(dist, dtype=np.float64)
    if dist.shape != (gen.dim,):
        raise ValueError(f"distribution has shape {dist.shape}, expected ({gen.dim},)")
    if gen.n_edges == 0:
        return BalanceReport(0.0, None, {name: 0.0 for name in EDGE_CLASS_NAMES.values()})
    residuals = np.abs(dist[gen.rows] * gen.rates - dist[gen.cols] * reverse_rates(gen))
    worst = int(residuals.argmax())
    i, j = int(gen.rows[worst]), int(gen.cols[worst])
    if gen.params is not None:
        pair: tuple = (decode(i, gen.params), decode(j, gen.params))
    else:
        pair = (i, j)
    by_class = {}
    for code, name in EDGE_CLASS_NAMES.items():
        mask = gen.kinds == code
        by_class[name] = float(residuals[mask].max()) if mask.any() else 0.0
    return BalanceReport(float(residuals.max()), pair, by_class)


def reversed_generator(
    gen: Generator, dist: np.ndarray, *, stationarity_tol: float = 1e-8
) -> Generator:
    """Rates of the time-reversed process under stationary ``dist``.

    The reversed rate of i -> j is ``dist[j] * rate(j -> i) / dist[i]``;
    the support mirrors the forward support.  ``dist`` must be strictly
    positive and stationary for ``gen`` (balance residual at most
    ``stationarity_tol``); both are checked rather than assumed.
    """
    dist = np.asarray(dist, dtype=np.float64)
    if dist.shape != (gen.dim,):
        raise ValueError(f"distribution has shape {dist.shape}, expected ({gen.dim},)")
    if np.any(dist <= 0.0):
        raise ValueError("distribution must be strictly positive everywhere")
    residual = float(np.abs(balance_residuals(gen, dist)).max())
    if residual > stationarity_tol:
        raise NotStationaryError(
            f"distribution is not stationary: balance residual {residual:.3e} "
            f"> {stationarity_tol:.1e}"
        )
    reversed_rates = dist[gen.cols] * reverse_rates(gen) / dist[gen.rows]
    return Generator(
        dim=gen.dim,
        rows=gen.rows.copy(),
        cols=gen.cols.copy(),
        rates=reversed_rates,
        kinds=gen.kinds.copy(),
        params=gen.params,
    )


def _tree_potential(gen: Generator, log_ratio: np.ndarray) -> np.ndarray:
    """Potential with ``phi_j = phi_i + log_ratio[i->j]`` along a
    breadth-first spanning tree of each connected component, zero at each
    component's root.  For a reversible chain it is ``log(stationary)`` up
    to one constant per component.
    """
    # Edge e is stored as e + 1, so the matrix is both the graph and a
    # lookup from a (parent, child) pair to its edge.
    edge_of = sp.csr_matrix(
        (np.arange(1, gen.n_edges + 1), (gen.rows, gen.cols)), shape=(gen.dim, gen.dim)
    )
    _, labels = connected_components(edge_of, directed=False)
    parent = np.arange(gen.dim)
    for root in np.unique(labels, return_index=True)[1]:
        order, pred = breadth_first_order(edge_of, root, directed=False, return_predecessors=True)
        parent[order[1:]] = pred[order[1:]]
    child = np.nonzero(parent != np.arange(gen.dim))[0]
    potential = np.zeros(gen.dim)
    potential[child] = log_ratio[np.asarray(edge_of[parent[child], child]).ravel() - 1]
    # Pointer doubling: potential[v] sums the log ratios from up[v] down
    # to v, and up[v] climbs until it reaches the root.
    up = parent
    while np.any(up[up] != up):
        potential = potential + potential[up]
        up = up[up]
    return potential


def kolmogorov_cycle_residual(gen: Generator) -> float:
    """Worst relative mismatch of forward vs reverse rate products over
    every cycle of the transition graph.

    Zero (up to rounding) characterises a reversible chain.  Kelly's
    tree-potential construction (Reversibility and Stochastic Networks,
    1979, section 1.5): with ``L = log(rate(i->j) / rate(j->i))`` on each
    edge, a spanning-tree potential ``phi`` (``_tree_potential``) makes
    ``L_ij - (phi_j - phi_i)`` the log rate-product ratio of the
    fundamental cycle that edge closes.  Those cycles span all cycles, so
    the check is exact and needs no stationary distribution.  Raises when
    the transition support is not structurally symmetric.
    """
    if gen.n_edges == 0:
        return 0.0
    log_ratio = np.log(gen.rates) - np.log(reverse_rates(gen))
    potential = _tree_potential(gen, log_ratio)
    mismatch = log_ratio - (potential[gen.cols] - potential[gen.rows])
    return float(np.abs(np.expm1(mismatch)).max())


def uniformity_check(params, dist: np.ndarray) -> float:
    """Max deviation of the solved stationary distribution ``dist`` from uniform.

    Only meaningful when every type's arrival rate equals its departure
    rate, in which case the closed form collapses to the uniform
    distribution; raises otherwise.
    """
    if any(a != b for a, b in zip(params.alpha, params.beta)):
        raise ValueError("uniformity requires alpha[k] == beta[k] for every type")
    dist = np.asarray(dist, dtype=np.float64)
    return float(np.abs(dist - 1.0 / dist.size).max())


def perturb_hop_rate(gen: Generator, factor: float = 2.0) -> Generator:
    """Copy of ``gen`` with one directed hop rate scaled by ``factor``.

    Scaling a single direction breaks the hop-rate symmetry, producing a
    generator whose stationary distribution is no longer the product form;
    used as a negative control for the balance and cycle checks.
    """
    if factor <= 0.0 or factor == 1.0:
        raise ValueError(f"factor must be positive and different from 1, got {factor}")
    hop_edges = np.nonzero(gen.kinds == EDGE_HOP)[0]
    if hop_edges.size == 0:
        raise ValueError("generator has no hop transitions to perturb")
    rates = gen.rates.copy()
    rates[hop_edges[0]] *= factor
    return Generator(
        dim=gen.dim,
        rows=gen.rows.copy(),
        cols=gen.cols.copy(),
        rates=rates,
        kinds=gen.kinds.copy(),
        params=gen.params,
    )
