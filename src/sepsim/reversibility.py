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

from dataclasses import replace

import numpy as np

from .exact import Generator, balance_residuals, reverse_rates

__all__ = [
    "NotStationaryError",
    "detailed_balance_residual",
    "reversed_rates_residual",
    "kolmogorov_cycle_residual",
    "perturb_hop_rate",
]

# Largest global-balance residual for which reversed_rates_residual accepts
# a distribution as stationary.
_STATIONARITY_TOL = 1e-8


class NotStationaryError(ValueError):
    """The supplied distribution is not stationary for the generator."""


def detailed_balance_residual(gen: Generator, dist: np.ndarray) -> float:
    """Largest pairwise-balance residual
    ``|p_i * rate(i->j) - p_j * rate(j->i)|`` of ``dist`` over every stored
    edge."""
    dist = np.asarray(dist, dtype=np.float64)
    if dist.shape != (gen.dim,):
        raise ValueError(f"distribution has shape {dist.shape}, expected ({gen.dim},)")
    return float(np.abs(dist[gen.rows] * gen.rates - dist[gen.cols] * reverse_rates(gen)).max())


def reversed_rates_residual(gen: Generator, dist: np.ndarray) -> float:
    """Largest gap between the time-reversed process's rates under
    stationary ``dist`` and the forward rates.

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
    return float(np.abs(dist[gen.cols] * reverse_rates(gen) / dist[gen.rows] - gen.rates).max())


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
    """Copy of ``gen`` with one directed hop rate doubled.

    Scaling a single direction breaks the hop-rate symmetry, producing a
    generator whose stationary distribution is no longer the product form;
    used as a negative control for the balance and cycle checks.  The edge
    is the hop from site N to site N-1 of the lowest type k with
    ``delta[k-1] > 0``, out of the state that holds only that particle:
    edge ``(k, k*(K+1))``, the hop edge with the smallest (row, col), found
    by its endpoints.
    """
    params = gen.params
    mobile = [k for k, rate in enumerate(params.delta, 1) if rate > 0.0]
    if not mobile:
        raise ValueError("generator has no hop transitions to perturb")
    k = mobile[0]
    edge = np.flatnonzero((gen.rows == k) & (gen.cols == k * (params.n_types + 1)))[0]
    rates = gen.rates.copy()
    rates[edge] *= 2.0
    rates.flags.writeable = False  # so that the copy keeps this array
    return replace(gen, rates=rates)
