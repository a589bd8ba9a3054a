"""Closed-form flux and sojourn-time observables, and their estimators.

The boundary arrival flux of a type and the mean sojourn time both have
closed forms that follow from the product stationary distribution; each is
also computable along an independent route (boundary vacancy form for the
flux, Little's law for the sojourn time), so agreement can be asserted at
double precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import nan, sqrt

import numpy as np

from .model import ModelParams
from .exact import site_marginal
from .simulate import SimStats

__all__ = [
    "FluxReport",
    "SojournReport",
    "arrival_rate_closed_form",
    "arrival_rate_boundary_form",
    "sojourn_closed_form",
    "sojourn_littles_law",
    "estimate_from_stats",
]


@dataclass(frozen=True)
class FluxReport:
    """Per-type arrival flux: closed form, boundary form, and the empirical
    estimate with Poisson-count standard error and z-score against the
    closed form (``nan`` where no arrivals were seen)."""

    closed_form: np.ndarray
    boundary_form: np.ndarray
    empirical: np.ndarray
    stderr: np.ndarray
    zscore: np.ndarray


@dataclass(frozen=True)
class SojournReport:
    """Per-type sojourn time: closed form, Little's-law form, and the
    empirical mean with sample standard error.  Types with no completed
    sojourn carry ``nan`` estimates and a zero sample count."""

    closed_form: np.ndarray
    littles_law: np.ndarray
    empirical_mean: np.ndarray
    stderr: np.ndarray
    sample_count: np.ndarray
    zscore: np.ndarray

    @property
    def insufficient_data(self) -> np.ndarray:
        """Boolean mask of types with no completed sojourn."""
        return self.sample_count == 0


def _check_type(params: ModelParams, k: int) -> None:
    if not 1 <= k <= params.n_types:
        raise ValueError(f"particle type {k} outside 1..{params.n_types}")


def arrival_rate_closed_form(params: ModelParams, k: int) -> float:
    """Stationary arrival flux of type k: 2*alpha_k / (1 + sum_l alpha_l/beta_l)."""
    _check_type(params, k)
    denom = 1.0 + sum(a / b for a, b in zip(params.alpha, params.beta))
    return 2.0 * params.alpha[k - 1] / denom


def arrival_rate_boundary_form(params: ModelParams, k: int) -> float:
    """Arrival flux via boundary vacancies: alpha_k * (P_1(0) + P_N(0)).

    Every site has the same marginal (:func:`~sepsim.exact.site_marginal`),
    so one vacancy probability stands for both boundary sites.
    """
    _check_type(params, k)
    vacancy = site_marginal(params)[0]
    return params.alpha[k - 1] * (vacancy + vacancy)


def sojourn_closed_form(params: ModelParams, k: int) -> float:
    """Mean sojourn time of type k: n_sites / (2*beta_k).

    Independent of every arrival rate and of the hop rates.
    """
    _check_type(params, k)
    return params.n_sites / (2.0 * params.beta[k - 1])


def sojourn_littles_law(params: ModelParams, k: int) -> float:
    """Mean sojourn via Little's law: mean number of type-k particles on
    the lattice divided by the type-k arrival flux.

    The mean is the left-to-right sum of the n_sites equal site terms, one
    marginal read once; ``n_sites * p`` would round differently.
    """
    _check_type(params, k)
    mean_on_lattice = sum(repeat(site_marginal(params)[k], params.n_sites))
    return mean_on_lattice / arrival_rate_closed_form(params, k)


def estimate_from_stats(
    stats: SimStats, params: ModelParams
) -> tuple[FluxReport, SojournReport, np.ndarray]:
    """Empirical flux, sojourn and site-marginal estimates from one run.

    Flux standard errors treat arrival counts as Poisson; sojourn standard
    errors come from the sample variance of each type's
    ``completed_sojourns``, a float64 array from the sampler (any sequence
    of floats works).  A type with no completed sojourn is reported with
    ``nan`` estimates instead of failing.  The third return value is the
    empirical (n_sites, n_types+1) marginal matrix, occupancy time
    normalized by the measurement time.
    """
    if stats.n_sites != params.n_sites or stats.n_types != params.n_types:
        raise ValueError("statistics were collected for a different model")
    if stats.total_time <= 0.0:
        raise ValueError("empty measurement window: total_time must be positive")
    n_types = params.n_types
    t = stats.total_time

    flux_closed = np.array([arrival_rate_closed_form(params, k) for k in range(1, n_types + 1)])
    flux_boundary = np.array([arrival_rate_boundary_form(params, k) for k in range(1, n_types + 1)])
    flux_emp = stats.arrivals_by_type / t
    flux_se = np.sqrt(stats.arrivals_by_type) / t
    flux_z = np.array(
        [
            (flux_emp[k0] - flux_closed[k0]) / flux_se[k0] if flux_se[k0] > 0.0 else nan
            for k0 in range(n_types)
        ]
    )

    sojourn_closed = np.array([sojourn_closed_form(params, k) for k in range(1, n_types + 1)])
    sojourn_little = np.array([sojourn_littles_law(params, k) for k in range(1, n_types + 1)])
    means = np.empty(n_types)
    errors = np.empty(n_types)
    counts = np.empty(n_types, dtype=np.int64)
    zscores = np.empty(n_types)
    for k0 in range(n_types):
        samples = stats.completed_sojourns[k0]
        counts[k0] = len(samples)
        if not len(samples):
            means[k0] = errors[k0] = zscores[k0] = nan
            continue
        arr = np.asarray(samples)
        means[k0] = arr.mean()
        if arr.size > 1:
            errors[k0] = arr.std(ddof=1) / sqrt(arr.size)
            zscores[k0] = (means[k0] - sojourn_closed[k0]) / errors[k0] if errors[k0] > 0 else nan
        else:
            errors[k0] = nan
            zscores[k0] = nan

    marginals = stats.site_occupancy_time / t
    flux = FluxReport(flux_closed, flux_boundary, flux_emp, flux_se, flux_z)
    sojourn = SojournReport(sojourn_closed, sojourn_little, means, errors, counts, zscores)
    return flux, sojourn, marginals
