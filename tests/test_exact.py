import dataclasses

import numpy as np
import pytest

from sepsim import (
    CapExceededError,
    Generator,
    ModelParams,
    balance_residuals,
    build_generator,
    certify_stationary,
    decode,
    is_irreducible,
    is_irreducible_model,
    joint_from_marginals,
    marginals_from_distribution,
    normalization_constant,
    product_form,
    resolve_state_cap,
    reverse_rates,
    site_marginal,
    solve_stationary,
)
from sepsim.exact import (
    EDGE_ARRIVAL,
    EDGE_DEPARTURE,
    EDGE_HOP,
    RESIDUAL_TOL,
    STATE_CAP_ENV,
    _REDUCIBLE_MESSAGE,
    _REVERSIBLE_TOL,
    _gated,
    _lemma_tree,
    _solve_lu,
    _solve_reversible,
)
from sepsim.model import EventKind, apply_event, encode, enabled_events, enumerate_states
from sepsim.reversibility import perturb_hop_rate, reversed_generator


def params(n=2, k=1, alpha=None, beta=None, delta=None, boundary_hops=True):
    return ModelParams(
        n_sites=n,
        n_types=k,
        alpha=alpha or (1.0,) * k,
        beta=beta or (1.0,) * k,
        delta=delta if delta is not None else (1.0,) * k,
        boundary_hops=boundary_hops,
    )


def random_grid(seed=20240817, draws=3, lo=0.5, hi=2.5):
    rng = np.random.default_rng(seed)
    grid = []
    for n in (2, 3, 4):
        for k in (1, 2):
            for bh in (True, False):
                for _ in range(draws):
                    grid.append(
                        ModelParams(
                            n_sites=n,
                            n_types=k,
                            alpha=tuple(rng.uniform(lo, hi, k)),
                            beta=tuple(rng.uniform(lo, hi, k)),
                            delta=tuple(rng.uniform(lo, hi, k)),
                            boundary_hops=bh,
                        )
                    )
    return grid


def edge_map(gen):
    return {
        (int(i), int(j)): (float(r), int(c))
        for i, j, r, c in zip(gen.rows, gen.cols, gen.rates, gen.kinds)
    }


TWO_SITE = params(2, 1, alpha=(1.0,), beta=(2.0,), delta=(1.0,))

# Independent oracle for the two-site single-type model with boundary hops:
# the generator written out by hand over states (0,0),(0,1),(1,0),(1,1).
TWO_SITE_Q = np.array(
    [
        [-2.0, 1.0, 1.0, 0.0],
        [2.0, -4.0, 1.0, 1.0],
        [2.0, 1.0, -4.0, 1.0],
        [0.0, 2.0, 2.0, -4.0],
    ]
)


def solve_by_hand(q):
    a = q.T.copy()
    a[-1, :] = 1.0
    rhs = np.zeros(q.shape[0])
    rhs[-1] = 1.0
    return np.linalg.solve(a, rhs)


class TestBuildGenerator:
    def test_edge_counts_two_site_model(self):
        assert build_generator(params(2, 1, boundary_hops=False)).n_edges == 8
        assert build_generator(params(2, 1, boundary_hops=True)).n_edges == 10

    def test_rates_and_classes(self):
        p = params(2, 1, alpha=(1.0,), beta=(2.0,), delta=(0.5,), boundary_hops=False)
        edges = edge_map(build_generator(p))
        # (0,0)=0, (0,1)=1, (1,0)=2, (1,1)=3
        assert edges[(0, 2)] == (1.0, EDGE_ARRIVAL)
        assert edges[(2, 0)] == (2.0, EDGE_DEPARTURE)
        assert (2, 1) not in edges and (1, 2) not in edges

    def test_boundary_hops_add_one_symmetric_pair(self):
        p = params(2, 1, alpha=(1.0,), beta=(2.0,), delta=(0.5,), boundary_hops=True)
        edges = edge_map(build_generator(p))
        assert edges[(2, 1)] == (0.5, EDGE_HOP)
        assert edges[(1, 2)] == (0.5, EDGE_HOP)

    def test_matches_hand_written_generator(self):
        gen = build_generator(TWO_SITE)
        assert np.allclose(gen.to_dense(), TWO_SITE_Q)

    def test_row_sums_are_zero(self):
        for p in random_grid(draws=1):
            dense = build_generator(p).to_dense()
            assert np.abs(dense.sum(axis=1)).max() <= 1e-12

    def test_support_is_structurally_symmetric(self):
        for p in random_grid(draws=1):
            gen = build_generator(p)
            reverse_rates(gen)  # raises if the support is not symmetric

    def test_zero_delta_removes_hop_edges(self):
        gen = build_generator(params(3, 1, delta=(0.0,)))
        assert not np.any(gen.kinds == EDGE_HOP)

    def test_generator_is_irreducible(self):
        for p in random_grid(draws=1):
            assert is_irreducible(build_generator(p))

    def test_cap_exceeded(self):
        with pytest.raises(CapExceededError) as err:
            build_generator(params(30, 1))
        assert str(resolve_state_cap()) in str(err.value)
        assert err.value.requested == 2**30

    def test_cap_argument_overrides_default(self):
        with pytest.raises(CapExceededError):
            build_generator(params(3, 2), cap=10)

    def test_cap_env_variable(self, monkeypatch):
        monkeypatch.setenv(STATE_CAP_ENV, "10")
        assert resolve_state_cap() == 10
        with pytest.raises(CapExceededError):
            build_generator(params(3, 2))
        monkeypatch.delenv(STATE_CAP_ENV)
        build_generator(params(3, 2))

    def test_edge_arrays_are_read_only(self):
        # The memoised tree potential is computed from them.
        gen = build_generator(TWO_SITE)
        with pytest.raises(ValueError, match="read-only"):
            gen.rates[0] = 5.0

    def test_generator_keeps_its_own_copy_of_a_callers_arrays(self):
        rows, cols, rates = np.array([0, 1]), np.array([1, 0]), np.array([1.0, 2.0])
        gen = Generator(dim=2, rows=rows, cols=cols, rates=rates, kinds=[EDGE_HOP] * 2)
        rows[0], cols[0], rates[0] = 1, 1, 5.0
        assert gen.rows.tolist() == [0, 1] and gen.cols.tolist() == [1, 0]
        assert gen.rates.tolist() == [1.0, 2.0]

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            Generator(dim=2, rows=[0], cols=[0], rates=[1.0], kinds=[EDGE_HOP])
        with pytest.raises(ValueError):
            Generator(dim=2, rows=[0], cols=[1], rates=[-1.0], kinds=[EDGE_HOP])
        with pytest.raises(ValueError):
            Generator(
                dim=2, rows=[0, 0], cols=[1, 1], rates=[1.0, 2.0], kinds=[EDGE_HOP, EDGE_HOP]
            )
        for dim in (2.0, True):
            with pytest.raises(ValueError, match="dimension must be an integer"):
                Generator(dim=dim, rows=[0, 1], cols=[1, 0], rates=[1.0, 1.0], kinds=[EDGE_HOP] * 2)
        gen = Generator(dim=np.int64(2), rows=[0], cols=[1], rates=[1.0], kinds=[EDGE_HOP])
        assert gen.dim == 2 and type(gen.dim) is int
        # Values are checked before the cast: int8 would wrap kinds 259 and
        # 257 to EDGE_HOP and EDGE_ARRIVAL, and int64 would truncate rows
        # [0.7, 1.2] to [0, 1].
        for edges in (
            dict(rows=np.array([0, 1]), cols=np.array([1, 0]), kinds=np.array([259, 257])),
            dict(rows=np.array([0, 1]), cols=np.array([1, 0]), kinds=np.array([0, 1])),
            dict(rows=np.array([0, 1]), cols=np.array([1, 0]), kinds=np.array([3.5, 3.0])),
            dict(rows=np.array([0.7, 1.2]), cols=np.array([1, 0]), kinds=np.array([3, 3])),
            dict(rows=np.array([0, 1]), cols=np.array([1.0, np.nan]), kinds=np.array([3, 3])),
        ):
            with pytest.raises(ValueError):
                Generator(dim=2, rates=[1.0, 1.0], **edges)

    def test_generator_accepts_exact_casts(self):
        gen = Generator(dim=2, rows=[0.0, 1.0], cols=np.array([1, 0], dtype=np.uint8),
                        rates=[1, 2], kinds=[3.0, 3.0])
        assert gen.rows.dtype == np.int64 and gen.cols.dtype == np.int64
        assert gen.kinds.dtype == np.int8 and gen.kinds.tolist() == [EDGE_HOP, EDGE_HOP]


_CLASS_OF = {
    EventKind.ARRIVAL: EDGE_ARRIVAL,
    EventKind.DEPARTURE: EDGE_DEPARTURE,
    EventKind.HOP_LEFT: EDGE_HOP,
    EventKind.HOP_RIGHT: EDGE_HOP,
}


class TestGeneratorOrderAndReverse:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("bh", [True, False])
    @pytest.mark.parametrize("frozen", [False, True], ids=["all-hop", "one-delta-zero"])
    def test_edges_are_the_event_rules(self, n, k, bh, frozen):
        rng = np.random.default_rng(100 * n + 10 * k + 2 * bh + frozen)
        rates = rng.uniform(0.2, 5.0, size=(3, k))
        delta = tuple(rates[2])
        if frozen:
            delta = delta[:-1] + (0.0,)
        p = params(n, k, alpha=tuple(rates[0]), beta=tuple(rates[1]), delta=delta,
                   boundary_hops=bh)
        expected = {}
        for state in enumerate_states(p):
            source = encode(state, p)
            for event, rate in enabled_events(state, p):
                target = encode(apply_event(state, event), p)
                assert (source, target) not in expected
                expected[(source, target)] = (rate, _CLASS_OF[event.kind])
        gen = build_generator(p)
        assert edge_map(gen) == expected
        assert gen.n_edges == len(expected)
        keys = gen.rows * gen.dim + gen.cols
        assert np.all(np.diff(keys) > 0)
        assert gen.reverse is not None
        opposite = [expected[(j, i)][0] for i, j in zip(gen.rows.tolist(), gen.cols.tolist())]
        assert gen.rates[gen.reverse].tolist() == opposite
        assert reverse_rates(gen).tolist() == opposite

    def test_more_types_than_a_signed_byte_holds(self):
        # Site values up to 130 on two sites without hops: 4 K (K + 1) edges.
        k = 130
        p = params(2, k, alpha=tuple(np.linspace(0.5, 2.0, k)), boundary_hops=False)
        gen = build_generator(p)
        assert gen.n_edges == 4 * k * (k + 1)
        assert np.abs(solve_stationary(gen) / product_form(p) - 1.0).max() <= 1e-12

    def test_copies_keep_the_reverse(self):
        p = params(4, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0))
        gen = build_generator(p)
        for copy in (perturb_hop_rate(gen), reversed_generator(gen, product_form(p)),
                     dataclasses.replace(gen, params=None)):
            assert copy.reverse is gen.reverse
            assert copy.rows is gen.rows and copy.cols is gen.cols

    def test_hand_built_edges_are_sorted(self):
        # 0 <-> 1 <-> 2, given out of order with matching rates and classes.
        gen = Generator(dim=3, rows=[2, 0, 1, 1], cols=[1, 1, 2, 0], rates=[4.0, 1.0, 3.0, 2.0],
                        kinds=[EDGE_HOP, EDGE_ARRIVAL, EDGE_HOP, EDGE_DEPARTURE])
        assert gen.rows.tolist() == [0, 1, 1, 2]
        assert gen.cols.tolist() == [1, 0, 2, 1]
        assert gen.rates.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert gen.kinds.tolist() == [EDGE_ARRIVAL, EDGE_DEPARTURE, EDGE_HOP, EDGE_HOP]
        assert gen.reverse.tolist() == [1, 0, 3, 2]
        assert reverse_rates(gen).tolist() == [2.0, 1.0, 4.0, 3.0]

    def test_a_given_reverse_follows_the_sort(self):
        gen = Generator(dim=3, rows=[2, 0, 1, 1], cols=[1, 1, 2, 0], rates=[4.0, 1.0, 3.0, 2.0],
                        kinds=[EDGE_HOP] * 4, reverse=[2, 3, 0, 1])
        assert gen.reverse.tolist() == [1, 0, 3, 2]

    def test_asymmetric_support_has_no_reverse(self):
        gen = Generator(dim=3, rows=[0, 1, 2, 1], cols=[1, 2, 0, 0], rates=[1.0, 2.0, 3.0, 4.0],
                        kinds=[EDGE_HOP] * 4)
        assert gen.reverse is None
        assert gen.tree_potential is None
        with pytest.raises(ValueError, match="transition support is not structurally symmetric"):
            reverse_rates(gen)

    @pytest.mark.parametrize(
        "reverse",
        [[0, 1, 2, 3], [1, 0, 2, 3], [1, 0, 3, 3], [1, 0, 3, 4], [1, 0, 3, -2], [1, 0, 3]],
        ids=["identity", "half", "not-a-permutation", "past-the-end", "negative", "short"],
    )
    def test_a_wrong_reverse_raises(self, reverse):
        with pytest.raises(ValueError):
            Generator(dim=3, rows=[0, 1, 1, 2], cols=[1, 0, 2, 1], rates=[1.0, 2.0, 3.0, 4.0],
                      kinds=[EDGE_HOP] * 4, reverse=reverse)

    def test_a_copy_with_a_changed_support_keeps_no_stale_reverse(self):
        gen = Generator(dim=3, rows=[0, 1, 1, 2], cols=[1, 0, 2, 1], rates=[1.0, 2.0, 3.0, 4.0],
                        kinds=[EDGE_HOP] * 4)
        with pytest.raises(ValueError, match="reverse"):
            dataclasses.replace(gen, cols=[2, 0, 2, 1])

    def test_dimension_must_fit_the_key(self):
        with pytest.raises(ValueError, match="2\\*\\*31"):
            Generator(dim=2**31, rows=[0], cols=[1], rates=[1.0], kinds=[EDGE_HOP])
        gen = Generator(dim=2**31 - 1, rows=[2**31 - 2, 0], cols=[0, 2**31 - 2], rates=[1.0, 2.0],
                        kinds=[EDGE_HOP] * 2)
        assert gen.rows.tolist() == [0, 2**31 - 2]
        assert gen.reverse.tolist() == [1, 0]


class TestSolveStationary:
    def test_two_site_model_against_hand_oracle(self):
        oracle = solve_by_hand(TWO_SITE_Q)
        assert np.allclose(oracle, [4 / 9, 2 / 9, 2 / 9, 1 / 9], atol=1e-14)
        solved = solve_stationary(build_generator(TWO_SITE))
        assert np.abs(solved - oracle).max() <= 1e-10
        assert np.abs(product_form(TWO_SITE) - oracle).max() <= 1e-12

    def test_uniform_when_rates_balance(self):
        solved = solve_stationary(build_generator(params(2, 1)))
        assert np.abs(solved - 0.25).max() <= 1e-12

    def test_oracle_equivalence_on_random_grid(self):
        for p in random_grid():
            solved = solve_stationary(build_generator(p))
            assert np.abs(solved - product_form(p)).max() <= 1e-10

    @pytest.mark.parametrize(
        "p",
        [
            params(3, 2, alpha=(1.0, 2.0), beta=(1.0, 1.0)),
            # Stiff rates: a dense LU solve of the bordered system landed
            # 3.3e-10 off (relative error 3.7e29) on the first and returned
            # a negative probability on the second.
            params(5, 2, alpha=(1e-6, 1e3), beta=(1e3, 1e-3)),
            params(7, 2, alpha=(1e-4, 30.0), beta=(5.0, 0.1)),
            # 6561 states; with slow hops power iteration did not converge.
            params(8, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0)),
            params(8, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0), delta=(0.01, 0.01)),
            # Without a refinement step the worst relative errors were
            # 4.1e-11, 1.9e-10 and 1.8e-10 here; with one whose residual is
            # taken in working precision from A, still 1.9e-10 on the second.
            params(12, 1, alpha=(1.0,), beta=(2.0,)),
            params(12, 1, alpha=(0.37,), beta=(0.74,), delta=(0.37,)),
            params(13, 1, alpha=(1.0,), beta=(2.0,)),
        ],
        ids=["n3k2", "stiff5", "stiff7", "n8k2", "n8k2-slow-hops", "n12k1", "n12k1-scaled",
             "n13k1"],
    )
    def test_absolute_and_relative_accuracy(self, p):
        # These models are reversible, so solve_stationary reads them off the
        # tree potential; the LU is held to the same accuracy directly.
        gen = build_generator(p)
        closed = product_form(p)
        for solved in (solve_stationary(gen), _gated(gen, _solve_lu(gen))):
            assert np.abs(solved - closed).max() <= 1e-10
            assert np.abs(solved / closed - 1.0).max() <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("bh", [True, False])
    def test_reversible_route_agrees_with_the_lu(self, n, k, bh):
        rng = np.random.default_rng(1000 * n + 10 * k + bh)
        rates = rng.uniform(0.2, 5.0, size=(3, k))
        gen = build_generator(params(n, k, alpha=tuple(rates[0]), beta=tuple(rates[1]),
                                     delta=tuple(rates[2]), boundary_hops=bh))
        weights = _solve_reversible(gen)
        assert weights is not None
        reversible, lu = _gated(gen, weights), _gated(gen, _solve_lu(gen))
        assert np.abs(reversible / lu - 1.0).max() <= 1e-12

    def test_broken_rate_symmetry_is_declined_and_solved_by_the_lu(self):
        gen = perturb_hop_rate(build_generator(params(4, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0))))
        assert _solve_reversible(gen) is None
        solved = solve_stationary(gen)
        assert np.abs(balance_residuals(gen, solved)).max() <= RESIDUAL_TOL
        assert np.array_equal(solved, _gated(gen, _solve_lu(gen)))

    def test_asymmetric_three_cycle(self):
        # 0 -> 1 -> 2 -> 0 at rates 1, 2, 3 and no reverse edges: the flow
        # p_i * rate is the same on every edge.
        gen = Generator(dim=3, rows=[0, 1, 2], cols=[1, 2, 0], rates=[1.0, 2.0, 3.0],
                        kinds=[EDGE_HOP] * 3)
        assert gen.tree_potential is None
        expected = np.array([1.0, 1 / 2, 1 / 3]) / (11 / 6)
        assert np.abs(solve_stationary(gen) / expected - 1.0).max() <= 1e-14

    def test_ten_sites_two_types(self):
        # 59049 states: the sparse LU's fill-in took about 40 s and 1 GiB here.
        p = params(10, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0))
        solved = solve_stationary(build_generator(p))
        closed = product_form(p)
        assert np.abs(solved - closed).max() <= 1e-10
        assert np.abs(solved / closed - 1.0).max() <= 1e-10

    def test_single_state_generator(self):
        gen = Generator(dim=1, rows=[], cols=[], rates=[], kinds=[])
        assert solve_stationary(gen).tolist() == [1.0]

    def test_reducible_generator_rejected(self):
        # two disconnected 2-cycles
        gen = Generator(
            dim=4,
            rows=[0, 1, 2, 3],
            cols=[1, 0, 3, 2],
            rates=[1.0, 1.0, 1.0, 1.0],
            kinds=[EDGE_ARRIVAL, EDGE_DEPARTURE, EDGE_ARRIVAL, EDGE_DEPARTURE],
        )
        assert not is_irreducible(gen)
        with pytest.raises(ValueError):
            solve_stationary(gen)

    def test_result_is_positive_and_normalized(self):
        for p in random_grid(draws=1):
            solved = solve_stationary(build_generator(p))
            assert solved.min() > 0.0
            assert abs(solved.sum() - 1.0) <= 1e-12

    def test_delta_independence_positive_rates(self):
        base = params(3, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0), delta=(1.0, 1.0))
        reference = solve_stationary(build_generator(base))
        for delta in ((0.4, 1.0), (3.5, 0.25), (0.05, 7.0)):
            variant = params(3, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0), delta=delta)
            solved = solve_stationary(build_generator(variant))
            assert np.abs(solved - reference).max() <= 1e-10

    def test_delta_independence_including_zero_on_two_sites(self):
        # Both sites of a two-site lattice are boundary sites, so the chain
        # stays irreducible even with no hops at all.
        reference = solve_stationary(build_generator(params(2, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0))))
        for delta in ((0.0, 0.0), (0.0, 1.0), (2.5, 0.0)):
            variant = params(2, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0), delta=delta)
            solved = solve_stationary(build_generator(variant))
            assert np.abs(solved - reference).max() <= 1e-10

    def test_zero_delta_on_longer_lattice_freezes_interior(self):
        # With an immobile type the interior occupancy of that type can
        # never change, so the full-space chain is reducible and the unique
        # solve refuses it -- yet the closed form still satisfies balance.
        p = params(3, 1, alpha=(1.0,), beta=(2.0,), delta=(0.0,))
        gen = build_generator(p)
        assert not is_irreducible(gen)
        with pytest.raises(ValueError):
            solve_stationary(gen)
        assert np.abs(balance_residuals(gen, product_form(p))).max() <= 1e-12

    def test_boundary_hop_independence(self):
        for bh in (True, False):
            p = params(3, 1, alpha=(1.3,), beta=(0.7,), boundary_hops=bh)
            solved = solve_stationary(build_generator(p))
            assert np.abs(solved - product_form(p)).max() <= 1e-10

    def test_balance_residuals_vanish_at_product_form(self):
        for p in random_grid(draws=1):
            gen = build_generator(p)
            assert np.abs(balance_residuals(gen, product_form(p))).max() <= 1e-12


class TestCertifyStationary:
    def test_product_form_certified_for_every_hop_rate_and_flag(self):
        base = params(4, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0))
        closed = product_form(base)
        for delta in ((1.0, 1.0), (0.05, 7.0), (4.6, 0.35)):
            for bh in (True, False):
                variant = params(4, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0), delta=delta, boundary_hops=bh)
                assert certify_stationary(variant, closed) <= 1e-12

    def test_wrong_distribution_reports_a_residual_above_tolerance(self):
        p = params(3, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0))
        # The product form of other arrival rates is not stationary here.
        wrong = product_form(params(3, 2, alpha=(1.0, 2.1), beta=(2.0, 1.0)))
        assert certify_stationary(p, wrong) > 1e-10

    def test_reducible_generator_raises_instead_of_passing(self):
        # The product form balances this model, yet it is not the unique
        # stationary law: the chain is reducible.
        p = params(3, 1, alpha=(1.0,), beta=(2.0,), delta=(0.0,))
        with pytest.raises(ValueError, match="irreducible"):
            certify_stationary(p, product_form(p))

    @staticmethod
    def random_models_and_distributions():
        # Random positive distributions are far from stationary, so every
        # event family, hop pair and boundary term shows in the residual.
        rng = np.random.default_rng(7)
        for n, k in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 2), (5, 1), (5, 2), (6, 1)):
            for bh in (True, False):
                rates = rng.uniform(0.1, 5.0, size=(3, k))
                p = params(n, k, alpha=tuple(rates[0]), beta=tuple(rates[1]), delta=tuple(rates[2]),
                           boundary_hops=bh)
                d = rng.uniform(0.05, 1.0, size=(k + 1) ** n)
                d /= d.sum()
                yield p, d

    def test_tensor_residual_equals_the_generator_residual(self):
        for p, d in self.random_models_and_distributions():
            expected = np.abs(balance_residuals(build_generator(p), d)).max()
            assert certify_stationary(p, d) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).nmant != 63, reason="the pinned bits are those of x87 80-bit long doubles"
    )
    def test_certificate_bits_are_pinned(self):
        # The exact floats, so a reordered extended-precision accumulation
        # shows even where it stays within the relative tolerance above.
        expected = [
            "0x1.44aca2a0ab4c9p+2", "0x1.d09d24721a4f1p-1", "0x1.a9347233be4bbp+0", "0x1.0a75cefcc86cdp+0",
            "0x1.e836b34bb53f8p-1", "0x1.903a0c9c92310p-1", "0x1.42ec89d7b751dp+0", "0x1.9f04dad8b73eap+0",
            "0x1.f74bcfb4b95e9p-2", "0x1.25186ef3eacf2p-1", "0x1.e96bb7037c380p-2", "0x1.ae36323a7fb22p-3",
            "0x1.933dd14d04441p-3", "0x1.74762bb19cf88p-3", "0x1.42013517f1e13p-1", "0x1.3757e1e4ffcbcp-1",
            "0x1.48d984cf8bb1cp-3", "0x1.9853fcfa4fa9cp-4", "0x1.64f86e392a0d0p-2", "0x1.53baaa2423b14p-2",
        ]
        got = [certify_stationary(p, d).hex() for p, d in self.random_models_and_distributions()]
        assert got == expected

    def test_shape_check(self):
        with pytest.raises(ValueError, match="shape"):
            certify_stationary(TWO_SITE, np.ones(3) / 3)


class TestIrreducibilityLemma:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("delta", [(1.0, 0.5), (0.0, 0.5), (1.0, 0.0), (0.0, 0.0)])
    @pytest.mark.parametrize("bh", [True, False])
    def test_lemma_agrees_with_the_graph_search(self, n, delta, bh):
        p = params(n, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0), delta=delta, boundary_hops=bh)
        assert is_irreducible_model(p) == is_irreducible(build_generator(p))
        assert is_irreducible_model(p) == (n <= 2 or min(delta) > 0.0)


LEMMA_MODELS = [
    params(3, 1, alpha=(1.3,), beta=(0.7,)),
    params(2, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0), delta=(0.0, 0.5), boundary_hops=False),
    params(2, 1, alpha=(1.0,), beta=(2.0,)),
    params(5, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0)),
    params(8, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0)),
    params(4, 3, alpha=(1.0, 2.0, 0.5), beta=(2.0, 1.0, 0.4), delta=(1.0, 0.3, 2.0)),
    params(5, 2, alpha=(1e-6, 1e3), beta=(1e3, 1e-3)),
]
LEMMA_IDS = ["n3k1", "n2k2-no-boundary-hops", "n2k1", "n5k2", "n8k2", "n4k3", "stiff5"]


class TestLemmaTree:
    """The irreducibility lemma's spanning tree against the breadth-first
    forest of the support, which a generator without ``params`` takes."""

    @pytest.mark.parametrize("p", LEMMA_MODELS, ids=LEMMA_IDS)
    def test_agrees_with_the_graph_search(self, p):
        gen = build_generator(p)
        searched = dataclasses.replace(gen, params=None)
        assert _lemma_tree(gen) is not None and _lemma_tree(searched) is None
        lemma, search = gen.tree_potential, searched.tree_potential
        assert lemma.n_components == search.n_components == 1
        # Both trees are rooted at the empty lattice, where phi is 0.
        np.testing.assert_allclose(lemma.phi, search.phi, rtol=1e-12, atol=1e-12)
        assert max(lemma.mismatch, search.mismatch) < _REVERSIBLE_TOL

    @pytest.mark.parametrize("p", LEMMA_MODELS, ids=LEMMA_IDS)
    def test_perturbed_copy_keeps_its_mismatch(self, p):
        # The two-site model without boundary hops has no hop to perturb.
        p = dataclasses.replace(p, boundary_hops=True)
        perturbed = perturb_hop_rate(build_generator(p))
        assert _lemma_tree(perturbed) is not None
        assert perturbed.tree_potential.mismatch == pytest.approx(1.0, rel=1e-12)
        searched = dataclasses.replace(perturbed, params=None)
        assert searched.tree_potential.mismatch == pytest.approx(1.0, rel=1e-12)

    def test_reducible_model_raises_the_same_message(self):
        gen = build_generator(params(3, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0), delta=(1.0, 0.0)))
        assert _lemma_tree(gen) is None
        assert gen.tree_potential.n_components > 1
        with pytest.raises(ValueError) as raised:
            solve_stationary(gen)
        assert str(raised.value) == _REDUCIBLE_MESSAGE

    def test_support_without_a_tree_edge_falls_back_to_the_search(self):
        # The hops between sites 1 and 2 are dropped, both ways, but the
        # generator still claims the full model.  The lemma's tree needs
        # them; the rest is still irreducible and reversible, with the same
        # product-form law.
        p = params(3, 1, alpha=(1.3,), beta=(0.7,), delta=(0.9,))
        full = build_generator(p)
        site3 = np.array([decode(s, p)[2] for s in range(full.dim)])
        first_bond = (full.kinds == EDGE_HOP) & (site3[full.rows] == site3[full.cols])
        keep = ~first_bond
        gen = Generator(dim=full.dim, rows=full.rows[keep], cols=full.cols[keep],
                        rates=full.rates[keep], kinds=full.kinds[keep], params=p)
        assert first_bond.sum() == 4 and _lemma_tree(gen) is None
        assert gen.tree_potential.n_components == 1
        assert gen.tree_potential.mismatch < _REVERSIBLE_TOL
        assert np.abs(solve_stationary(gen) / product_form(p) - 1.0).max() <= 1e-12

    def test_params_of_another_lattice_fall_back_to_the_search(self):
        gen = dataclasses.replace(build_generator(params(3, 1)), params=params(2, 2))
        assert gen.dim == 8 and _lemma_tree(gen) is None
        assert np.abs(solve_stationary(gen) / product_form(params(3, 1)) - 1.0).max() <= 1e-12


class TestClosedForms:
    def test_normalization_examples(self):
        assert normalization_constant(TWO_SITE) == pytest.approx(4 / 9, abs=1e-15)
        p = params(3, 2, alpha=(1.0, 2.0), beta=(1.0, 1.0))
        assert normalization_constant(p) == pytest.approx(1 / 64, abs=1e-15)
        for k in (1, 2, 3):
            balanced = params(2, k)
            assert normalization_constant(balanced) == pytest.approx((k + 1) ** -2, abs=1e-15)

    def test_product_form_examples(self):
        probs = product_form(TWO_SITE)
        assert probs[3] == pytest.approx(1 / 9, abs=1e-15)  # (1,1)
        assert probs[0] == pytest.approx(normalization_constant(TWO_SITE), abs=1e-15)
        p = params(3, 2, alpha=(1.0, 2.0), beta=(1.0, 1.0))
        index = 2 * 9 + 0 * 3 + 1  # state (2,0,1)
        assert product_form(p)[index] == pytest.approx(1 / 32, abs=1e-15)

    def test_product_form_sums_to_one(self):
        for p in random_grid(draws=1):
            probs = product_form(p)
            assert abs(probs.sum() - 1.0) <= 1e-12
            assert probs.min() > 0.0

    def test_site_marginal_examples(self):
        assert np.allclose(site_marginal(TWO_SITE, 1), [2 / 3, 1 / 3], atol=1e-15)
        p = params(3, 2, alpha=(1.0, 2.0), beta=(1.0, 1.0))
        assert np.allclose(site_marginal(p, 2), [1 / 4, 1 / 4, 1 / 2], atol=1e-15)
        balanced = params(4, 3)
        assert np.allclose(site_marginal(balanced, 4), [0.25] * 4, atol=1e-15)

    def test_site_marginal_identical_for_every_site(self):
        p = params(4, 2, alpha=(0.7, 1.9), beta=(1.1, 0.6))
        rows = [site_marginal(p, s) for s in range(1, 5)]
        for row in rows[1:]:
            assert np.array_equal(row, rows[0])

    def test_site_marginal_site_out_of_range(self):
        with pytest.raises(ValueError):
            site_marginal(TWO_SITE, 0)
        with pytest.raises(ValueError):
            site_marginal(TWO_SITE, 3)

    def test_joint_from_marginals_matches_product_form(self):
        for p in random_grid(draws=1):
            assert np.abs(joint_from_marginals(p) - product_form(p)).max() <= 1e-12

    def test_joint_from_marginals_examples(self):
        probs = joint_from_marginals(TWO_SITE)
        assert probs[2] == pytest.approx(2 / 9, abs=1e-15)  # (1,0)
        assert probs[0] == pytest.approx(normalization_constant(TWO_SITE), abs=1e-15)

    def test_marginals_from_distribution_consistency(self):
        for p in random_grid(draws=1):
            marginals = marginals_from_distribution(product_form(p), p)
            expected = site_marginal(p, 1)
            for row in marginals:
                assert np.abs(row - expected).max() <= 1e-12

    def test_marginals_from_distribution_shape_check(self):
        with pytest.raises(ValueError):
            marginals_from_distribution(np.ones(3) / 3, TWO_SITE)
