import hashlib

import numpy as np
import pytest

from sepsim import (
    ModelParams,
    SimConfig,
    SimStats,
    arrival_rate_boundary_form,
    arrival_rate_closed_form,
    estimate_from_stats,
    merge_replicas,
    run_replica,
    sojourn_closed_form,
    sojourn_littles_law,
)


def params(n=2, k=1, alpha=None, beta=None, delta=None):
    return ModelParams(
        n_sites=n,
        n_types=k,
        alpha=alpha or (1.0,) * k,
        beta=beta or (1.0,) * k,
        delta=delta if delta is not None else (1.0,) * k,
    )


def random_models(seed=77, count=20):
    rng = np.random.default_rng(seed)
    models = []
    for _ in range(count):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, 4))
        models.append(
            ModelParams(
                n_sites=n,
                n_types=k,
                alpha=tuple(rng.uniform(0.3, 3.0, k)),
                beta=tuple(rng.uniform(0.3, 3.0, k)),
                delta=tuple(rng.uniform(0.0, 3.0, k)),
            )
        )
    return models


def synthetic_stats(n=3, k=2, total_time=500.0, arrivals=(1000, 400), sojourns=None):
    marginal_time = np.full((n, k + 1), total_time / (k + 1))
    arrivals = np.asarray(arrivals, dtype=np.int64)
    return SimStats(
        n_sites=n,
        n_types=k,
        total_time=total_time,
        site_occupancy_time=marginal_time,
        arrivals_by_type=arrivals,
        departures_by_type=arrivals.copy(),
        start_counts_by_type=np.zeros(k, dtype=np.int64),
        end_counts_by_type=np.zeros(k, dtype=np.int64),
        completed_sojourns=sojourns if sojourns is not None else [[1.0, 2.0, 3.0], [0.5]],
        event_count=int(arrivals.sum() * 2),
    )


class TestClosedForms:
    def test_arrival_rate_examples(self):
        assert arrival_rate_closed_form(params(5, 1), 1) == pytest.approx(1.0, abs=1e-15)
        p = params(4, 2, alpha=(1.0, 2.0), beta=(1.0, 1.0))
        assert arrival_rate_closed_form(p, 1) == pytest.approx(0.5, abs=1e-15)
        assert arrival_rate_closed_form(p, 2) == pytest.approx(1.0, abs=1e-15)

    def test_arrival_rate_vanishes_with_vanishing_alpha(self):
        rates = [
            arrival_rate_closed_form(params(3, 1, alpha=(a,), beta=(1.0,)), 1)
            for a in (1e-3, 1e-6, 1e-9)
        ]
        assert rates[0] > rates[1] > rates[2]
        assert rates[2] == pytest.approx(0.0, abs=1e-8)

    def test_boundary_form_example(self):
        p = params(4, 1, alpha=(1.0,), beta=(2.0,))
        assert arrival_rate_boundary_form(p, 1) == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert arrival_rate_closed_form(p, 1) == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_balanced_rates_give_two_over_k_plus_one(self):
        for k in (1, 2, 3):
            p = params(3, k)
            for ptype in range(1, k + 1):
                assert arrival_rate_closed_form(p, ptype) == pytest.approx(2.0 / (k + 1), abs=1e-15)

    def test_flux_identity_on_random_models(self):
        for p in random_models():
            for k in range(1, p.n_types + 1):
                diff = abs(arrival_rate_closed_form(p, k) - arrival_rate_boundary_form(p, k))
                assert diff <= 1e-12

    def test_sojourn_examples(self):
        assert sojourn_closed_form(params(4, 1, beta=(2.0,)), 1) == pytest.approx(1.0, abs=0.0)
        assert sojourn_closed_form(params(2, 1, beta=(2.0,)), 1) == pytest.approx(0.5, abs=0.0)
        p = params(3, 2, alpha=(1.0, 2.0), beta=(1.0, 1.0))
        assert sojourn_closed_form(p, 1) == pytest.approx(1.5, abs=0.0)
        assert sojourn_closed_form(p, 2) == pytest.approx(1.5, abs=0.0)

    def test_littles_law_examples(self):
        p = params(2, 1, alpha=(1.0,), beta=(2.0,))
        assert sojourn_littles_law(p, 1) == pytest.approx(0.5, abs=1e-15)
        balanced = params(6, 3)
        assert sojourn_littles_law(balanced, 2) == pytest.approx(3.0, abs=1e-13)

    def test_littles_law_identity_on_random_models(self):
        for p in random_models():
            for k in range(1, p.n_types + 1):
                diff = abs(sojourn_littles_law(p, k) - sojourn_closed_form(p, k))
                assert diff <= 1e-12

    def test_flux_monotone_in_alpha(self):
        values = [
            arrival_rate_closed_form(params(3, 2, alpha=(a, 1.0), beta=(1.5, 0.5)), 1)
            for a in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(lo < hi for lo, hi in zip(values, values[1:]))

    def test_sojourn_monotone_in_beta(self):
        values = [
            sojourn_closed_form(params(3, 1, beta=(b,)), 1) for b in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(lo > hi for lo, hi in zip(values, values[1:]))

    def test_sojourn_invariant_under_alpha_and_delta(self):
        reference = sojourn_closed_form(params(4, 2, alpha=(1.0, 2.0), beta=(0.7, 1.3)), 1)
        for alpha in ((0.1, 5.0), (9.0, 0.2)):
            for delta in ((0.0, 0.0), (4.0, 0.5)):
                p = params(4, 2, alpha=alpha, beta=(0.7, 1.3), delta=delta)
                assert sojourn_closed_form(p, 1) == reference

    @pytest.mark.parametrize("func", [
        arrival_rate_closed_form,
        arrival_rate_boundary_form,
        sojourn_closed_form,
        sojourn_littles_law,
    ])
    def test_type_out_of_range(self, func):
        with pytest.raises(ValueError):
            func(params(3, 2), 0)
        with pytest.raises(ValueError):
            func(params(3, 2), 3)


class TestEstimateFromStats:
    def test_flux_ratio_definition(self):
        stats = synthetic_stats()
        flux, _, _ = estimate_from_stats(stats, params(3, 2))
        assert flux.empirical[0] == pytest.approx(2.0, abs=0.0)  # 1000 arrivals / 500 time
        assert flux.stderr[0] == pytest.approx(np.sqrt(1000) / 500, abs=0.0)
        assert np.isfinite(flux.zscore).all()

    def test_marginals_are_normalized_occupancy(self):
        stats = synthetic_stats()
        _, _, marginals = estimate_from_stats(stats, params(3, 2))
        assert marginals.shape == (3, 3)
        assert np.allclose(marginals.sum(axis=1), 1.0)

    def test_no_completed_sojourns_marked_insufficient(self):
        stats = synthetic_stats(sojourns=[[1.0, 1.5], []])
        _, sojourn, _ = estimate_from_stats(stats, params(3, 2))
        assert sojourn.sample_count.tolist() == [2, 0]
        assert sojourn.insufficient_data.tolist() == [False, True]
        assert np.isnan(sojourn.empirical_mean[1])
        assert np.isnan(sojourn.stderr[1])

    def test_single_sample_has_no_stderr(self):
        stats = synthetic_stats(sojourns=[[1.0], [0.5, 0.7]])
        _, sojourn, _ = estimate_from_stats(stats, params(3, 2))
        assert sojourn.empirical_mean[0] == pytest.approx(1.0)
        assert np.isnan(sojourn.stderr[0])

    def test_empty_measurement_window_rejected(self):
        stats = synthetic_stats(total_time=0.0)
        with pytest.raises(ValueError):
            estimate_from_stats(stats, params(3, 2))

    def test_model_mismatch_rejected(self):
        with pytest.raises(ValueError):
            estimate_from_stats(synthetic_stats(), params(4, 2))

    def test_reports_close_to_theory_on_a_real_run(self):
        p = params(3, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0))
        cfg = SimConfig(seed=53, max_events=120_000, warmup_fraction=0.2)
        merged = merge_replicas([run_replica(p, cfg, i) for i in range(3)])
        flux, sojourn, marginals = estimate_from_stats(merged, p)
        assert np.abs(flux.closed_form - flux.boundary_form).max() <= 1e-12
        assert np.abs(sojourn.closed_form - sojourn.littles_law).max() <= 1e-12
        assert np.abs(flux.zscore).max() <= 3.0
        assert np.abs(sojourn.zscore).max() <= 3.0


PINNED_MODELS = {
    "n2k1": params(2, 1, alpha=(1.3,), beta=(0.7,)),
    "n5k2": params(5, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0)),
    "n30k3": params(30, 3, alpha=(1.0, 2.0, 0.5), beta=(2.0, 1.0, 0.4), delta=(1.0, 0.3, 2.0)),
    "n100k2": params(100, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0)),
    "n100k3": params(100, 3, alpha=(0.3, 1.7, 2.9), beta=(1.1, 0.6, 2.3)),
}
# Per model: arrival_rate_boundary_form and sojourn_littles_law of each
# type as float.hex, and the SHA-256 of every array estimate_from_stats
# returns for pinned_stats, in field order.
PINNED_BITS = {
    "n2k1": (["0x1.d1eb851eb851dp-1"], ["0x1.6db6db6db6db8p+0"],
             "7e030105b28d2a858bb11c4256a79a1cac480f537a98382ace495c4c43149d31"),
    "n5k2": (["0x1.2492492492492p-1", "0x1.2492492492492p+0"],
             ["0x1.4000000000000p+0", "0x1.4000000000000p+1"],
             "2cbbd4731a110bb710d8bae9bebc0080894d43c5b7d412fff2ef36dd9afe14ca"),
    "n30k3": (["0x1.af286bca1af28p-2", "0x1.af286bca1af28p-1", "0x1.af286bca1af28p-3"],
              ["0x1.dfffffffffffbp+2", "0x1.dfffffffffffbp+3", "0x1.2c00000000004p+5"],
              "764ebc9b42c8699bafed145bfd0da117a876505414f9440dbc7f0656a9485e1e"),
    "n100k2": (["0x1.2492492492492p-1", "0x1.2492492492492p+0"],
               ["0x1.8fffffffffffap+4", "0x1.8fffffffffffap+5"],
               "ba3ab1f38aae528ebeba5d4a21e25f161e4b37049fab2ef11553b2f07a98d654"),
    "n100k3": (["0x1.c9ea57f212d0dp-4", "0x1.445b53a0cd53ep-1", "0x1.14a83fcceb5e2p+0"],
               ["0x1.6ba2e8ba2e8b2p+5", "0x1.4d5555555554fp+6", "0x1.5bd37a6f4dea4p+4"],
               "e8850cdc9d601939045999a270904aed64f60b9da27d2f81b4aa9ed3a47a4894"),
}


def pinned_stats(p):
    rng = np.random.default_rng(p.n_sites * 10 + p.n_types)
    k = p.n_types
    arrivals = rng.integers(100, 1000, k)
    occupancy = rng.uniform(0.0, 1.0, (p.n_sites, k + 1))
    return SimStats(
        n_sites=p.n_sites,
        n_types=k,
        total_time=float(occupancy[0].sum()) * 7.0,
        site_occupancy_time=occupancy * 7.0,
        arrivals_by_type=arrivals,
        departures_by_type=arrivals.copy(),
        start_counts_by_type=np.zeros(k, dtype=np.int64),
        end_counts_by_type=np.zeros(k, dtype=np.int64),
        completed_sojourns=[rng.exponential(2.0, 50 + i) for i in range(k)],
        event_count=int(arrivals.sum()) * 2,
    )


@pytest.mark.parametrize("name", PINNED_MODELS)
def test_analytics_bits_are_pinned(name):
    # The exact floats, so a reordered sum over the sites shows even where it
    # stays within the identity tolerances above.
    p = PINNED_MODELS[name]
    boundary, littles, report_digest = PINNED_BITS[name]
    types = range(1, p.n_types + 1)
    assert [arrival_rate_boundary_form(p, k).hex() for k in types] == boundary
    assert [sojourn_littles_law(p, k).hex() for k in types] == littles
    flux, sojourn, marginals = estimate_from_stats(pinned_stats(p), p)
    digest = hashlib.sha256()
    for array in (*vars(flux).values(), *vars(sojourn).values(), marginals):
        digest.update(np.ascontiguousarray(array).tobytes())
    assert digest.hexdigest() == report_digest
