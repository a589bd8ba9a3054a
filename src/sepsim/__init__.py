"""sepsim: exact analysis and kinetic Monte Carlo simulation of a
multi-type symmetric simple exclusion lattice with open boundaries.

Particles of several types enter at either end of a finite 1D lattice,
hop symmetrically between adjacent vacant sites, and leave from the ends.
The stationary distribution has a closed product form; this package
computes it, solves the balance equations numerically as an independent
oracle, simulates the dynamics event by event with reproducible seeding,
and checks flux, sojourn-time, and reversibility identities.
"""

__version__ = "0.1.0"

from .model import (
    LatticeState,
    ModelParams,
    decode,
    state_space_size,
)
from .exact import (
    CapExceededError,
    Generator,
    SingularSystemError,
    SolveError,
    balance_residuals,
    build_generator,
    certify_stationary,
    is_irreducible_model,
    marginals_from_distribution,
    normalization_constant,
    product_form,
    resolve_state_cap,
    reverse_rates,
    site_marginal,
    solve_stationary,
)
from .simulate import (
    RNG_SCHEME,
    SimConfig,
    SimStats,
    merge_replicas,
    replica_rng,
    run_replica,
    run_replicas,
)
from .analytics import (
    FluxReport,
    SojournReport,
    arrival_rate_boundary_form,
    arrival_rate_closed_form,
    estimate_from_stats,
    sojourn_closed_form,
    sojourn_littles_law,
)
from .reversibility import (
    BalanceReport,
    NotStationaryError,
    detailed_balance_residual,
    kolmogorov_cycle_residual,
    perturb_hop_rate,
    reversed_generator,
)

__all__ = [
    "__version__",
    "LatticeState",
    "ModelParams",
    "decode",
    "state_space_size",
    "CapExceededError",
    "Generator",
    "SingularSystemError",
    "SolveError",
    "balance_residuals",
    "build_generator",
    "certify_stationary",
    "is_irreducible_model",
    "marginals_from_distribution",
    "normalization_constant",
    "product_form",
    "resolve_state_cap",
    "reverse_rates",
    "site_marginal",
    "solve_stationary",
    "RNG_SCHEME",
    "SimConfig",
    "SimStats",
    "merge_replicas",
    "replica_rng",
    "run_replica",
    "run_replicas",
    "FluxReport",
    "SojournReport",
    "arrival_rate_boundary_form",
    "arrival_rate_closed_form",
    "estimate_from_stats",
    "sojourn_closed_form",
    "sojourn_littles_law",
    "BalanceReport",
    "NotStationaryError",
    "detailed_balance_residual",
    "kolmogorov_cycle_residual",
    "perturb_hop_rate",
    "reversed_generator",
]
