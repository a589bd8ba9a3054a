"""Acceptance suite: one test per release criterion, at pinned tolerances.

Every test prints one `[acceptance] criterion N: PASS/FAIL` line (visible
with ``pytest -s`` or in the captured-output summary with ``-rA``) and then
asserts, so the suite is both a human-readable checklist and a hard gate.
"""

import json

import numpy as np
import pytest

from sepsim import (
    ModelParams,
    SimConfig,
    balance_residuals,
    build_generator,
    detailed_balance_residual,
    estimate_from_stats,
    marginals_from_distribution,
    merge_replicas,
    perturb_hop_rate,
    product_form,
    reversed_generator,
    run_replica,
    site_marginal,
    solve_stationary,
    uniformity_check,
)
from sepsim.analytics import (
    arrival_rate_boundary_form,
    arrival_rate_closed_form,
    sojourn_closed_form,
    sojourn_littles_law,
)
from sepsim.cli import main

TOL_ORACLE = 1e-10
TOL_MARGINALS = 1e-12
TOL_FLUX_IDENTITY = 1e-12
TOL_SOJOURN_IDENTITY = 1e-12
TOL_BALANCE = 1e-12
TOL_BALANCE_CONTROL = 1e-3
TOL_REVERSED = 1e-12
TOL_UNIFORMITY = 1e-10
TOL_INDEPENDENCE = 1e-10
SIGMA = 3.0


def _report(criterion: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} - {detail}", flush=True)
    assert passed, f"criterion {criterion}: {detail}"


def _grid(draws=3, seed=20250808):
    rng = np.random.default_rng(seed)
    models = []
    for n in (2, 3, 4):
        for k in (1, 2):
            for bh in (True, False):
                for _ in range(draws):
                    models.append(
                        ModelParams(
                            n_sites=n,
                            n_types=k,
                            alpha=tuple(rng.uniform(0.5, 2.5, k)),
                            beta=tuple(rng.uniform(0.5, 2.5, k)),
                            delta=tuple(rng.uniform(0.5, 2.5, k)),
                            boundary_hops=bh,
                        )
                    )
    return models


GRID = _grid()

# The simulation-vs-theory model: 5 sites, two types, ratios summing to 2.5.
SIM_MODEL = ModelParams(
    n_sites=5, n_types=2, alpha=(1.0, 2.0), beta=(2.0, 1.0), delta=(1.0, 1.0)
)
SIM_CONFIG = SimConfig(seed=20250808, max_events=1_000_000, warmup_fraction=0.2, replicas=10)


@pytest.fixture(scope="module")
def sim_replicas():
    return [run_replica(SIM_MODEL, SIM_CONFIG, index) for index in range(SIM_CONFIG.replicas)]


def test_c01_oracle_equivalence():
    worst = 0.0
    for params in GRID:
        solved = solve_stationary(build_generator(params))
        worst = max(worst, float(np.abs(solved - product_form(params)).max()))
    _report(
        "1",
        worst <= TOL_ORACLE,
        f"numerical solve vs closed form over {len(GRID)} grid models: "
        f"max deviation {worst:.3e} (tol {TOL_ORACLE:.0e})",
    )


def test_c02_marginals_match_closed_forms_and_sites():
    worst_closed = 0.0
    worst_across = 0.0
    for params in GRID:
        solved = solve_stationary(build_generator(params))
        marginals = marginals_from_distribution(solved, params)
        closed = site_marginal(params, 1)
        worst_closed = max(worst_closed, float(np.abs(marginals - closed).max()))
        worst_across = max(worst_across, float(np.abs(marginals - marginals[0]).max()))
    passed = worst_closed <= TOL_MARGINALS and worst_across <= TOL_MARGINALS
    _report(
        "2",
        passed,
        f"solved marginals vs closed form {worst_closed:.3e}, across sites "
        f"{worst_across:.3e} (tol {TOL_MARGINALS:.0e})",
    )


def test_c03_flux_identity():
    worst = 0.0
    for params in GRID:
        for k in range(1, params.n_types + 1):
            worst = max(
                worst,
                abs(arrival_rate_closed_form(params, k) - arrival_rate_boundary_form(params, k)),
            )
    _report(
        "3",
        worst <= TOL_FLUX_IDENTITY,
        f"closed-form vs boundary-form flux: max |diff| {worst:.3e} (tol {TOL_FLUX_IDENTITY:.0e})",
    )


def test_c04_sojourn_identity():
    worst = 0.0
    for params in GRID:
        for k in range(1, params.n_types + 1):
            worst = max(
                worst, abs(sojourn_littles_law(params, k) - sojourn_closed_form(params, k))
            )
    _report(
        "4",
        worst <= TOL_SOJOURN_IDENTITY,
        f"Little's-law vs closed-form sojourn: max |diff| {worst:.3e} "
        f"(tol {TOL_SOJOURN_IDENTITY:.0e})",
    )


def test_c05_detailed_balance_with_negative_control():
    worst = 0.0
    for params in GRID:
        report = detailed_balance_residual(build_generator(params), product_form(params))
        worst = max(worst, report.max_abs_residual)
    control_model = ModelParams(n_sites=3, n_types=1, alpha=(1.0,), beta=(2.0,), delta=(1.0,))
    control = detailed_balance_residual(
        perturb_hop_rate(build_generator(control_model), 2.0), product_form(control_model)
    )
    passed = worst <= TOL_BALANCE and control.max_abs_residual > TOL_BALANCE_CONTROL
    _report(
        "5",
        passed,
        f"pairwise balance residual {worst:.3e} (tol {TOL_BALANCE:.0e}); perturbed control "
        f"{control.max_abs_residual:.3e} > {TOL_BALANCE_CONTROL:.0e}",
    )


def test_c06a_reversed_chain_general_rates():
    worst = 0.0
    for params in GRID:
        gen = build_generator(params)
        reversed_gen = reversed_generator(gen, product_form(params))
        worst = max(worst, float(np.abs(reversed_gen.rates - gen.rates).max()))
    _report(
        "6a",
        worst <= TOL_REVERSED,
        f"time-reversed rates vs forward rates, general alpha/beta: max |diff| {worst:.3e} "
        f"(tol {TOL_REVERSED:.0e})",
    )


def test_c06b_reversed_chain_rate_symmetric():
    worst = 0.0
    count = 0
    rng = np.random.default_rng(6)
    for n in (2, 3, 4):
        for k in (1, 2):
            rates = tuple(rng.uniform(0.5, 2.5, k))
            params = ModelParams(
                n_sites=n, n_types=k, alpha=rates, beta=rates, delta=tuple(rng.uniform(0.5, 2.5, k))
            )
            gen = build_generator(params)
            reversed_gen = reversed_generator(gen, product_form(params))
            worst = max(worst, float(np.abs(reversed_gen.rates - gen.rates).max()))
            count += 1
    _report(
        "6b",
        worst <= TOL_REVERSED,
        f"time-reversed rates under alpha == beta over {count} models: max |diff| {worst:.3e} "
        f"(tol {TOL_REVERSED:.0e})",
    )


def test_c07_uniformity_under_balanced_rates():
    worst = 0.0
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        for k in (1, 2):
            rates = tuple(rng.uniform(0.5, 2.5, k))
            params = ModelParams(
                n_sites=n, n_types=k, alpha=rates, beta=rates, delta=tuple(rng.uniform(0.5, 2.5, k))
            )
            solved = solve_stationary(build_generator(params))
            worst = max(worst, uniformity_check(params, solved))
    _report(
        "7",
        worst <= TOL_UNIFORMITY,
        f"max |p(x) - 1/(K+1)^N| under alpha == beta: {worst:.3e} (tol {TOL_UNIFORMITY:.0e})",
    )


def test_c08_delta_and_boundary_hop_independence():
    worst = 0.0
    for params in GRID:
        reference = solve_stationary(build_generator(params))
        variants = [
            ModelParams(
                n_sites=params.n_sites,
                n_types=params.n_types,
                alpha=params.alpha,
                beta=params.beta,
                delta=tuple(3.7 * d + 0.9 for d in params.delta),
                boundary_hops=params.boundary_hops,
            ),
            ModelParams(
                n_sites=params.n_sites,
                n_types=params.n_types,
                alpha=params.alpha,
                beta=params.beta,
                delta=params.delta,
                boundary_hops=not params.boundary_hops,
            ),
        ]
        if params.n_sites == 2:
            # Zero hop rates keep the two-site chain irreducible (both
            # sites are boundaries); on longer lattices they freeze the
            # interior, so the delta = 0 case is covered there by the
            # closed form remaining a balance solution (asserted below).
            variants.append(
                ModelParams(
                    n_sites=2,
                    n_types=params.n_types,
                    alpha=params.alpha,
                    beta=params.beta,
                    delta=(0.0,) * params.n_types,
                    boundary_hops=params.boundary_hops,
                )
            )
        for variant in variants:
            solved = solve_stationary(build_generator(variant))
            worst = max(worst, float(np.abs(solved - reference).max()))
        if params.n_sites > 2:
            frozen = ModelParams(
                n_sites=params.n_sites,
                n_types=params.n_types,
                alpha=params.alpha,
                beta=params.beta,
                delta=(0.0,) * params.n_types,
                boundary_hops=params.boundary_hops,
            )
            residual = float(
                np.abs(balance_residuals(build_generator(frozen), product_form(frozen))).max()
            )
            worst = max(worst, residual)
    _report(
        "8",
        worst <= TOL_INDEPENDENCE,
        f"stationary solve across hop-rate variations (incl. zero) and boundary-hop flag: "
        f"max deviation {worst:.3e} (tol {TOL_INDEPENDENCE:.0e})",
    )


def test_c09_simulation_matches_theory(sim_replicas):
    merged = merge_replicas(sim_replicas)
    flux, sojourn, _ = estimate_from_stats(merged, SIM_MODEL)

    closed_marginal = site_marginal(SIM_MODEL, 1)
    per_replica = np.array(
        [stats.site_occupancy_time / stats.total_time for stats in sim_replicas]
    )
    mean_marginal = per_replica.mean(axis=0)
    se_marginal = per_replica.std(axis=0, ddof=1) / np.sqrt(len(sim_replicas))
    marginal_z = np.abs(mean_marginal - closed_marginal) / se_marginal

    flux_z = np.abs(flux.zscore)
    sojourn_z = np.abs(sojourn.zscore)
    passed = (
        float(marginal_z.max()) <= SIGMA
        and float(flux_z.max()) <= SIGMA
        and float(sojourn_z.max()) <= SIGMA
    )
    _report(
        "9",
        passed,
        f"{SIM_CONFIG.replicas} replicas x {SIM_CONFIG.max_events} events: max |z| "
        f"marginals {marginal_z.max():.2f}, flux {flux_z.max():.2f}, "
        f"sojourn {sojourn_z.max():.2f} (limit {SIGMA})",
    )
    # spot-check the closed-form targets for this model
    assert closed_marginal[0] == pytest.approx(2 / 7, abs=1e-15)
    assert flux.closed_form[0] == pytest.approx(4 / 7, abs=1e-15)
    assert flux.closed_form[1] == pytest.approx(8 / 7, abs=1e-15)
    assert sojourn.closed_form[0] == pytest.approx(5 / 4, abs=1e-15)
    assert sojourn.closed_form[1] == pytest.approx(5 / 2, abs=1e-15)


def test_c10_simulation_reports_are_byte_identical(tmp_path):
    config = {
        "n_sites": 3,
        "n_types": 2,
        "alpha": [1.0, 2.0],
        "beta": [2.0, 1.0],
        "delta": [1.0, 0.5],
        "seed": 99,
        "max_events": 50_000,
        "warmup_fraction": 0.2,
        "replicas": 2,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out1, out2 = tmp_path / "run1.json", tmp_path / "run2.json"
    rc1 = main(["simulate", "--config", str(config_path), "--output", str(out1)])
    rc2 = main(["simulate", "--config", str(config_path), "--output", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    _report(
        "10",
        rc1 == 0 and rc2 == 0 and identical,
        f"two runs with seed {config['seed']}: byte-identical reports = {identical}",
    )
