import numpy as np
import pytest

from sepsim import (
    ModelParams,
    NotStationaryError,
    build_generator,
    detailed_balance_residual,
    kolmogorov_cycle_residual,
    perturb_hop_rate,
    product_form,
    reversed_generator,
    solve_stationary,
)
from sepsim.exact import EDGE_HOP, _lemma_potential, reverse_rates


def params(n=2, k=1, alpha=None, beta=None, delta=None):
    return ModelParams(
        n_sites=n,
        n_types=k,
        alpha=alpha or (1.0,) * k,
        beta=beta or (1.0,) * k,
        delta=delta if delta is not None else (1.0,) * k,
    )


TWO_SITE = params(2, 1, alpha=(1.0,), beta=(2.0,), delta=(1.0,))

GRID = [
    params(n, k, alpha=tuple(a), beta=tuple(b), delta=d)
    for (n, k, a, b, d) in [
        (2, 1, (1.0,), (2.0,), None),
        (2, 1, (1.0,), (2.0,), (0.0,)),
        (2, 2, (1.0, 0.4), (0.6, 1.1), None),
        (3, 1, (1.7,), (0.9,), None),
        (3, 2, (1.0, 2.0), (2.0, 1.0), None),
        (4, 2, (0.8, 1.6), (1.2, 0.5), None),
    ]
]


# Over 729 states, where a sampled cycle check missed the perturbed edge;
# the second has stiff rates.
LARGE = [
    params(5, 3, alpha=(1.0, 2.0, 0.5), beta=(2.0, 1.0, 1.0)),
    params(7, 2, alpha=(1e-4, 30.0), beta=(5.0, 0.1)),
]


class TestDetailedBalance:
    @pytest.mark.parametrize("p", GRID, ids=lambda p: f"n{p.n_sites}k{p.n_types}")
    def test_product_form_balances_every_pair(self, p):
        report = detailed_balance_residual(build_generator(p), product_form(p))
        assert report.max_abs_residual <= 1e-12
        assert set(report.by_class) == {"arrival", "departure", "hop"}
        assert max(report.by_class.values()) <= 1e-12

    def test_hand_checked_pair_balances(self):
        # (0,0) <-> (1,0): (4/9)*1 == (2/9)*2, residual 0.
        gen = build_generator(TWO_SITE)
        closed = product_form(TWO_SITE)
        assert closed[0] * 1.0 - closed[2] * 2.0 == pytest.approx(0.0, abs=1e-15)
        report = detailed_balance_residual(gen, closed)
        assert report.max_abs_residual <= 1e-15

    def test_uniform_distribution_fails_for_unbalanced_rates(self):
        # |1/4 * alpha - 1/4 * beta| = 1/4 on every arrival/departure pair.
        gen = build_generator(TWO_SITE)
        report = detailed_balance_residual(gen, np.full(4, 0.25))
        assert report.max_abs_residual == pytest.approx(0.25, abs=1e-15)
        assert report.by_class["arrival"] == pytest.approx(0.25, abs=1e-15)
        assert report.by_class["hop"] == pytest.approx(0.0, abs=1e-15)
        assert report.worst_pair is not None

    def test_worst_pair_is_decoded(self):
        gen = build_generator(TWO_SITE)
        report = detailed_balance_residual(gen, np.full(4, 0.25))
        a, b = report.worst_pair
        assert isinstance(a, tuple) and len(a) == 2

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            detailed_balance_residual(build_generator(TWO_SITE), np.ones(3) / 3)

    def test_perturbed_generator_detected(self):
        p = params(3, 1, alpha=(1.0,), beta=(2.0,), delta=(1.0,))
        perturbed = perturb_hop_rate(build_generator(p))
        report = detailed_balance_residual(perturbed, product_form(p))
        assert report.max_abs_residual > 1e-3
        assert report.by_class["hop"] > 1e-3


class TestReversedGenerator:
    @pytest.mark.parametrize("p", GRID, ids=lambda p: f"n{p.n_sites}k{p.n_types}")
    def test_reversed_rates_equal_forward_rates(self, p):
        gen = build_generator(p)
        reversed_gen = reversed_generator(gen, product_form(p))
        assert np.array_equal(reversed_gen.rows, gen.rows)
        assert np.array_equal(reversed_gen.cols, gen.cols)
        assert np.abs(reversed_gen.rates - gen.rates).max() <= 1e-12

    def test_balanced_rates_case(self):
        p = params(3, 2)
        gen = build_generator(p)
        reversed_gen = reversed_generator(gen, solve_stationary(gen))
        assert np.abs(reversed_gen.rates - gen.rates).max() <= 1e-10

    def test_hand_checked_reversed_rate(self):
        # reversed (0,0)->(1,0) rate: p(1,0)*beta / p(0,0) = (2/9*2)/(4/9) = 1.
        gen = build_generator(TWO_SITE)
        reversed_gen = reversed_generator(gen, product_form(TWO_SITE))
        edges = {
            (int(i), int(j)): float(r)
            for i, j, r in zip(reversed_gen.rows, reversed_gen.cols, reversed_gen.rates)
        }
        assert edges[(0, 2)] == pytest.approx(1.0, abs=1e-15)

    def test_zero_probability_rejected(self):
        gen = build_generator(TWO_SITE)
        dist = product_form(TWO_SITE).copy()
        dist[1] = 0.0
        with pytest.raises(ValueError):
            reversed_generator(gen, dist)

    def test_non_stationary_distribution_rejected(self):
        gen = build_generator(TWO_SITE)
        with pytest.raises(NotStationaryError):
            reversed_generator(gen, np.full(4, 0.25))


class TestKolmogorovCycles:
    @pytest.mark.parametrize(
        "p",
        [params(n, k) for n in (2, 3) for k in (1, 2)]
        + [params(3, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0))]
        + LARGE,
        ids=lambda p: f"n{p.n_sites}k{p.n_types}",
    )
    def test_cycle_products_match_up_to_length_six(self, p):
        assert kolmogorov_cycle_residual(build_generator(p)) <= 1e-10

    def test_three_cycle_by_hand(self):
        # (0,0)->(1,0)->(0,1)->(0,0): forward a*d*b equals reverse a*d*b.
        gen = build_generator(TWO_SITE)
        assert kolmogorov_cycle_residual(gen) <= 1e-15

    def test_perturbed_generator_yields_positive_residual(self):
        for p in [params(3, 1, alpha=(1.0,), beta=(2.0,), delta=(1.0,))] + LARGE:
            perturbed = perturb_hop_rate(build_generator(p))
            residual = kolmogorov_cycle_residual(perturbed)
            assert residual > 0.4, f"n{p.n_sites}k{p.n_types}"

    @pytest.mark.parametrize("p", GRID + LARGE, ids=lambda p: f"n{p.n_sites}k{p.n_types}")
    def test_tree_potential_is_log_product_form(self, p):
        # Detailed balance gives log p_j - log p_i = log(rate(i->j) / rate(j->i)).
        gen = build_generator(p)
        log_ratio = np.log(gen.rates) - np.log(reverse_rates(gen))
        offset = _lemma_potential(gen, log_ratio) - np.log(product_form(p))
        assert np.ptp(offset) <= 1e-10


class TestUniformity:
    """Under alpha == beta per type the stationary law is uniform, 1/M each."""

    @staticmethod
    def deviation(p):
        dist = solve_stationary(build_generator(p))
        return float(np.abs(dist - 1.0 / dist.size).max())

    def test_two_site_uniform(self):
        assert self.deviation(params(2, 1)) <= 1e-10

    def test_three_site_two_type_uniform(self):
        assert self.deviation(params(3, 2)) <= 1e-10  # 27 states, each 1/27

    def test_unbalanced_rates_rejected(self):
        dist = solve_stationary(build_generator(TWO_SITE))
        np.testing.assert_allclose(dist, product_form(TWO_SITE), atol=1e-12)
        assert self.deviation(TWO_SITE) > 1e-2


class TestPerturbHopRate:
    def test_exactly_one_edge_scaled(self):
        gen = build_generator(TWO_SITE)
        perturbed = perturb_hop_rate(gen)
        changed = np.nonzero(perturbed.rates != gen.rates)[0]
        assert changed.size == 1
        assert gen.kinds[changed[0]] == EDGE_HOP
        assert perturbed.rates[changed[0]] == pytest.approx(2.0 * gen.rates[changed[0]])

    def test_no_hops_to_perturb(self):
        gen = build_generator(params(2, 1, delta=(0.0,)))
        with pytest.raises(ValueError):
            perturb_hop_rate(gen)
        gen = build_generator(params(3, 1, delta=(0.0,)))
        with pytest.raises(ValueError):
            perturb_hop_rate(gen)
