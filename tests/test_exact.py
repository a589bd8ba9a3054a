import dataclasses

import numpy as np
import pytest

from reference import (
    EventKind,
    apply_event,
    enabled_events,
    encode,
    enumerate_states,
    is_irreducible,
    joint_from_marginals,
    search_potential,
    to_dense,
)
from sepsim import (
    CapExceededError,
    ModelParams,
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
from sepsim.exact import (
    EDGE_ARRIVAL,
    EDGE_DEPARTURE,
    EDGE_HOP,
    RESIDUAL_TOL,
    STATE_CAP_ENV,
    _REDUCIBLE_MESSAGE,
    _REVERSIBLE_TOL,
    _follow,
    _gated,
    _solve_lu,
    _solve_reversible,
)
from sepsim.reversibility import perturb_hop_rate, reversed_generator


def params(n=2, k=1, alpha=None, beta=None, delta=None):
    return ModelParams(
        n_sites=n,
        n_types=k,
        alpha=alpha or (1.0,) * k,
        beta=beta or (1.0,) * k,
        delta=delta if delta is not None else (1.0,) * k,
    )


def random_grid(seed=20240817, draws=3, lo=0.5, hi=2.5):
    rng = np.random.default_rng(seed)
    grid = []
    for n in (2, 3, 4):
        for k in (1, 2):
            for _ in range(draws):
                grid.append(
                    ModelParams(
                        n_sites=n,
                        n_types=k,
                        alpha=tuple(rng.uniform(lo, hi, k)),
                        beta=tuple(rng.uniform(lo, hi, k)),
                        delta=tuple(rng.uniform(lo, hi, k)),
                    )
                )
    return grid


def edge_map(gen):
    return {
        (int(i), int(j)): (float(r), int(c))
        for i, j, r, c in zip(gen.rows, gen.cols, gen.rates, gen.kinds)
    }


TWO_SITE = params(2, 1, alpha=(1.0,), beta=(2.0,), delta=(1.0,))

# Independent oracle for the two-site single-type model with hops:
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
        assert build_generator(params(2, 1, delta=(0.0,))).n_edges == 8
        assert build_generator(params(2, 1, delta=(1.0,))).n_edges == 10

    def test_rates_and_classes(self):
        p = params(2, 1, alpha=(1.0,), beta=(2.0,), delta=(0.0,))
        edges = edge_map(build_generator(p))
        # (0,0)=0, (0,1)=1, (1,0)=2, (1,1)=3
        assert edges[(0, 2)] == (1.0, EDGE_ARRIVAL)
        assert edges[(2, 0)] == (2.0, EDGE_DEPARTURE)
        assert (2, 1) not in edges and (1, 2) not in edges

    def test_two_sites_hop_across_their_one_bond(self):
        p = params(2, 1, alpha=(1.0,), beta=(2.0,), delta=(0.5,))
        edges = edge_map(build_generator(p))
        assert edges[(2, 1)] == (0.5, EDGE_HOP)
        assert edges[(1, 2)] == (0.5, EDGE_HOP)

    def test_matches_hand_written_generator(self):
        gen = build_generator(TWO_SITE)
        assert np.allclose(to_dense(gen), TWO_SITE_Q)

    def test_row_sums_are_zero(self):
        for p in random_grid(draws=1):
            dense = to_dense(build_generator(p))
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

    def test_cap_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv(STATE_CAP_ENV, "10")
        with pytest.raises(CapExceededError):
            build_generator(params(3, 2))

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
        gen = build_generator(TWO_SITE)
        rates = 2.0 * gen.rates
        copy = dataclasses.replace(gen, rates=rates)
        rates[0] = 5.0
        assert copy.rates.tolist() == (2.0 * gen.rates).tolist()
        with pytest.raises(ValueError, match="read-only"):
            copy.rates[0] = 5.0

    def test_generator_validation(self):
        # Only the rates of a copy reach a generator from outside
        # build_generator: the wrong shape, or a rate that is not positive
        # and finite, is refused.
        gen = build_generator(TWO_SITE)
        bad = [gen.rates[:-1], np.append(gen.rates, 1.0), gen.rates.reshape(2, -1)]
        for value in (0.0, -1.0, np.nan, np.inf):
            rates = gen.rates.copy()
            rates[3] = value
            bad.append(rates)
        for rates in bad:
            with pytest.raises(ValueError):
                dataclasses.replace(gen, rates=rates)


_CLASS_OF = {
    EventKind.ARRIVAL: EDGE_ARRIVAL,
    EventKind.DEPARTURE: EDGE_DEPARTURE,
    EventKind.HOP_LEFT: EDGE_HOP,
    EventKind.HOP_RIGHT: EDGE_HOP,
}


class TestGeneratorOrderAndReverse:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("draw", [0, 1])
    @pytest.mark.parametrize("frozen", [False, True], ids=["all-hop", "one-delta-zero"])
    def test_edges_are_the_event_rules(self, n, k, draw, frozen):
        rng = np.random.default_rng(100 * n + 10 * k + 2 * draw + frozen)
        rates = rng.uniform(0.2, 5.0, size=(3, k))
        delta = tuple(rates[2])
        if frozen:
            delta = delta[:-1] + (0.0,)
        p = params(n, k, alpha=tuple(rates[0]), beta=tuple(rates[1]), delta=delta)
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
        opposite = [expected[(j, i)][0] for i, j in zip(gen.rows.tolist(), gen.cols.tolist())]
        assert gen.rates[gen.reverse].tolist() == opposite
        assert reverse_rates(gen).tolist() == opposite

    def test_more_types_than_a_signed_byte_holds(self):
        # Site values up to 130 on two sites without hops: 4 K (K + 1) edges.
        k = 130
        p = params(2, k, alpha=tuple(np.linspace(0.5, 2.0, k)), delta=(0.0,) * k)
        gen = build_generator(p)
        assert gen.n_edges == 4 * k * (k + 1)
        assert np.abs(solve_stationary(gen) / product_form(p) - 1.0).max() <= 1e-12

    def test_copies_keep_the_reverse(self):
        # A copy changes only the rates and shares the model's support.
        p = params(4, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0))
        gen = build_generator(p)
        for copy in (perturb_hop_rate(gen), reversed_generator(gen, product_form(p))):
            for name in ("rows", "cols", "kinds", "reverse", "params"):
                assert getattr(copy, name) is getattr(gen, name), name
            assert copy.dim == gen.dim

    def test_a_given_reverse_follows_the_sort(self):
        # build_generator's sort: edge e's reverse moves with both edges.
        # 0 <-> 1 <-> 2, given out of order with each edge's reverse.
        rows, cols = np.array([2, 0, 1, 1]), np.array([1, 1, 2, 0])
        order = np.argsort(rows * 3 + cols, kind="stable")
        assert rows[order].tolist() == [0, 1, 1, 2] and cols[order].tolist() == [1, 0, 2, 1]
        assert _follow(np.array([2, 3, 0, 1]), order).tolist() == [1, 0, 3, 2]

    def test_dimension_must_fit_the_key(self, monkeypatch):
        # The cap bounds every generator's dim, so that the sort key
        # rows * dim + cols fits in int64.
        monkeypatch.setenv(STATE_CAP_ENV, str(2**31 - 1))
        assert resolve_state_cap() == 2**31 - 1
        for raw in (str(2**31), str(2**62)):
            monkeypatch.setenv(STATE_CAP_ENV, raw)
            with pytest.raises(ValueError, match="below 2\\*\\*31"):
                resolve_state_cap()


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
    @pytest.mark.parametrize("draw", [0, 1])
    def test_reversible_route_agrees_with_the_lu(self, n, k, draw):
        rng = np.random.default_rng(1000 * n + 10 * k + draw)
        rates = rng.uniform(0.2, 5.0, size=(3, k))
        gen = build_generator(params(n, k, alpha=tuple(rates[0]), beta=tuple(rates[1]),
                                     delta=tuple(rates[2])))
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

    def test_lu_matches_the_dense_null_vector(self):
        # Perturbed copies are not reversible, so their law has no closed
        # form; the dense solve of the same generator is the reference.
        rng = np.random.default_rng(31)
        for n in (2, 3, 4):
            for k in (1, 2):
                rates = rng.uniform(0.2, 5.0, size=(3, k))
                gen = perturb_hop_rate(build_generator(params(
                    n, k, alpha=tuple(rates[0]), beta=tuple(rates[1]), delta=tuple(rates[2]))))
                dense = solve_by_hand(to_dense(gen))
                lu = _gated(gen, _solve_lu(gen))
                assert np.abs(lu / dense - 1.0).max() <= 1e-12, (n, k)

    def test_ten_sites_two_types(self):
        # 59049 states: the sparse LU's fill-in took about 40 s and 1 GiB here.
        p = params(10, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0))
        solved = solve_stationary(build_generator(p))
        closed = product_form(p)
        assert np.abs(solved - closed).max() <= 1e-10
        assert np.abs(solved / closed - 1.0).max() <= 1e-10

    def test_reducible_generator_rejected(self):
        # A copy keeps its model's support, so a perturbed copy of a
        # reducible model's generator is refused like the generator itself.
        gen = perturb_hop_rate(build_generator(params(3, 2, delta=(1.0, 0.0))))
        assert not is_irreducible(gen)
        with pytest.raises(ValueError) as raised:
            solve_stationary(gen)
        assert str(raised.value) == _REDUCIBLE_MESSAGE

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

    def test_balance_residuals_vanish_at_product_form(self):
        for p in random_grid(draws=1):
            gen = build_generator(p)
            assert np.abs(balance_residuals(gen, product_form(p))).max() <= 1e-12


class TestCertifyStationary:
    def test_product_form_certified_for_every_hop_rate(self):
        base = params(4, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0))
        closed = product_form(base)
        for delta in ((1.0, 1.0), (0.05, 7.0), (4.6, 0.35)):
            variant = params(4, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0), delta=delta)
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
            for draw in range(2):
                rates = rng.uniform(0.1, 5.0, size=(3, k))
                # The second draw on two sites has no hops.
                delta = (0.0,) * k if draw and n == 2 else tuple(rates[2])
                p = params(n, k, alpha=tuple(rates[0]), beta=tuple(rates[1]), delta=delta)
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
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9])
    @pytest.mark.parametrize("delta", [(1.0, 0.5), (0.0, 0.5), (1.0, 0.0), (0.0, 0.0)])
    def test_lemma_agrees_with_the_graph_search(self, n, delta):
        p = params(n, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0), delta=delta)
        assert is_irreducible_model(p) == is_irreducible(build_generator(p))
        assert is_irreducible_model(p) == (n <= 2 or min(delta) > 0.0)


LEMMA_MODELS = [
    params(3, 1, alpha=(1.3,), beta=(0.7,)),
    params(2, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0), delta=(0.0, 0.0)),
    params(2, 1, alpha=(1.0,), beta=(2.0,)),
    params(5, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0)),
    params(8, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0)),
    params(4, 3, alpha=(1.0, 2.0, 0.5), beta=(2.0, 1.0, 0.4), delta=(1.0, 0.3, 2.0)),
    params(5, 2, alpha=(1e-6, 1e3), beta=(1e3, 1e-3)),
]
LEMMA_IDS = ["n3k1", "n2k2-no-hops", "n2k1", "n5k2", "n8k2", "n4k3", "stiff5"]


class TestLemmaTree:
    """The irreducibility lemma's spanning tree against a breadth-first
    tree of the support (``reference.search_potential``)."""

    @pytest.mark.parametrize("p", LEMMA_MODELS, ids=LEMMA_IDS)
    def test_agrees_with_the_graph_search(self, p):
        gen = build_generator(p)
        lemma = gen.tree_potential
        # Both trees are rooted at the empty lattice, where phi is 0, and
        # the search reaches every state.
        np.testing.assert_allclose(lemma.phi, search_potential(gen), rtol=1e-12, atol=1e-12)
        assert lemma.mismatch < _REVERSIBLE_TOL

    @pytest.mark.parametrize("p", LEMMA_MODELS, ids=LEMMA_IDS)
    def test_perturbed_copy_keeps_its_mismatch(self, p):
        # The two-site model without hops has none to perturb; its second type gets one.
        if max(p.delta) == 0.0:
            p = dataclasses.replace(p, delta=(0.0, 0.5))
        perturbed = perturb_hop_rate(build_generator(p))
        assert perturbed.tree_potential.mismatch == pytest.approx(1.0, rel=1e-12)

    def test_reducible_model_raises_the_same_message(self):
        gen = build_generator(params(3, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0), delta=(1.0, 0.0)))
        for read in (lambda: gen.tree_potential, lambda: solve_stationary(gen)):
            with pytest.raises(ValueError) as raised:
                read()
            assert str(raised.value) == _REDUCIBLE_MESSAGE


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
        assert np.allclose(site_marginal(TWO_SITE), [2 / 3, 1 / 3], atol=1e-15)
        p = params(3, 2, alpha=(1.0, 2.0), beta=(1.0, 1.0))
        assert np.allclose(site_marginal(p), [1 / 4, 1 / 4, 1 / 2], atol=1e-15)
        balanced = params(4, 3)
        assert np.allclose(site_marginal(balanced), [0.25] * 4, atol=1e-15)

    def test_site_marginal_identical_for_every_site(self):
        p = params(4, 2, alpha=(0.7, 1.9), beta=(1.1, 0.6))
        for row in marginals_from_distribution(product_form(p), p):
            assert np.allclose(row, site_marginal(p), rtol=0.0, atol=1e-15)

    def test_joint_from_marginals_matches_product_form(self):
        for p in random_grid(draws=1):
            assert np.abs(joint_from_marginals(p) - product_form(p)).max() <= 1e-12

    def test_joint_from_marginals_examples(self):
        probs = joint_from_marginals(TWO_SITE)
        assert probs[2] == pytest.approx(2 / 9, abs=1e-15)  # (1,0)
        assert probs[0] == pytest.approx(normalization_constant(TWO_SITE), abs=1e-15)

    @pytest.mark.parametrize("n,k", [(2, 1), (9, 1), (6, 2), (4, 3), (8, 2), (12, 1), (5, 3)])
    def test_products_are_the_bytes_of_kron(self, n, k):
        # The outer-product build must give np.kron's bits, not just close values.
        rng = np.random.default_rng(100 * n + k)
        p = params(n, k, alpha=tuple(rng.uniform(0.3, 3.0, k)), beta=tuple(rng.uniform(0.3, 3.0, k)))
        weights = np.concatenate(([1.0], [a / b for a, b in zip(p.alpha, p.beta)]))
        marginal = site_marginal(p)
        kron_weights, kron_marginal = weights, marginal
        for _ in range(n - 1):
            kron_weights = np.kron(kron_weights, weights)
            kron_marginal = np.kron(kron_marginal, marginal)
        assert product_form(p).tobytes() == (kron_weights * normalization_constant(p)).tobytes()
        assert joint_from_marginals(p).tobytes() == kron_marginal.tobytes()

    def test_marginals_from_distribution_consistency(self):
        for p in random_grid(draws=1):
            marginals = marginals_from_distribution(product_form(p), p)
            expected = site_marginal(p)
            for row in marginals:
                assert np.abs(row - expected).max() <= 1e-12

    def test_marginals_from_distribution_shape_check(self):
        with pytest.raises(ValueError):
            marginals_from_distribution(np.ones(3) / 3, TWO_SITE)
