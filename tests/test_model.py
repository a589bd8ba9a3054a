import numpy as np
import pytest

from reference import (
    Event,
    EventKind,
    EventNotEnabledError,
    apply_event,
    decode,
    enabled_events,
    encode,
    enumerate_states,
)
import sepsim
import sepsim.cli
from sepsim import ModelParams, state_space_size


def params(n=2, k=1, alpha=None, beta=None, delta=None):
    return ModelParams(
        n_sites=n,
        n_types=k,
        alpha=alpha or (1.0,) * k,
        beta=beta or (1.0,) * k,
        delta=delta if delta is not None else (1.0,) * k,
    )


# Each shape with unit rates and with a rate of its own per type and event
# family, plus the two-site lattices without hops.
SMALL = {}
for n in (2, 3, 4):
    for k in (1, 2):
        SMALL[f"n{n}k{k}-unit"] = params(n, k)
        SMALL[f"n{n}k{k}-rates"] = params(
            n,
            k,
            alpha=tuple(1.0 + 0.5 * i for i in range(k)),
            beta=tuple(2.0 - 0.5 * i for i in range(k)),
            delta=tuple(0.3 + 0.9 * i for i in range(k)),
        )
for k in (1, 2):
    SMALL[f"n2k{k}-no-hops"] = params(2, k, delta=(0.0,) * k)
SMALL_MODELS, SMALL_IDS = list(SMALL.values()), list(SMALL)


class TestModelParams:
    def test_boundary_hops_is_not_a_parameter(self):
        # A two-site lattice without hops is delta == 0.
        with pytest.raises(TypeError):
            ModelParams(n_sites=2, n_types=1, alpha=(1.0,), beta=(1.0,), delta=(0.5,), boundary_hops=True)

    def test_rate_vectors_are_normalized_to_float_tuples(self):
        p = ModelParams(n_sites=2, n_types=2, alpha=[1, 2], beta=[3, 4], delta=[0, 1])
        assert p.alpha == (1.0, 2.0)
        assert p.delta == (0.0, 1.0)
        p = ModelParams(n_sites=2, n_types=2, alpha=np.array([1.0, 2.0]), beta=(np.float32(3.0), np.int64(4)),
                        delta=(0.0, 1.0))
        assert p.alpha == (1.0, 2.0) and p.beta == (3.0, 4.0)
        assert all(type(v) is float for v in p.alpha + p.beta)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_sites=1),
            dict(n_sites=0),
            dict(n_types=0),
            dict(alpha=(1.0, 1.0)),
            dict(beta=()),
            dict(alpha=(0.0,)),
            dict(beta=(-1.0,)),
            dict(delta=(-0.5,)),
            dict(alpha=(float("inf"),)),
            dict(delta=(float("nan"),)),
            dict(alpha=1.0),
            dict(alpha=(None,)),
            dict(n_types=2, alpha="12", beta=(1.0, 1.0), delta=(1.0, 1.0)),
            dict(n_types=2, alpha={"1": 0, "2": 0}, beta=(1.0, 1.0), delta=(1.0, 1.0)),
            dict(n_types=2, alpha=(1.0, 1.0), beta=(1.0, 1.0), delta=[True, 1]),
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        base = dict(n_sites=2, n_types=1, alpha=(1.0,), beta=(1.0,), delta=(1.0,))
        base.update(kwargs)
        with pytest.raises(ValueError):
            ModelParams(**base)


class TestStateSpace:
    def test_size_examples(self):
        assert state_space_size(params(2, 1)) == 4
        assert state_space_size(params(3, 2)) == 27
        assert state_space_size(params(10, 3)) == 1048576

    def test_size_is_exact_for_large_lattices(self):
        assert state_space_size(params(40, 3)) == 4**40

    def test_encode_examples(self):
        assert encode((0, 0, 0), params(3, 2)) == 0
        assert encode((1, 0), params(2, 1)) == 2
        assert encode((2, 0, 1), params(3, 2)) == 19

    def test_decode_examples(self):
        assert decode(0, params(3, 2)) == (0, 0, 0)
        assert decode(2, params(2, 1)) == (1, 0)
        assert decode(19, params(3, 2)) == (2, 0, 1)

    def test_encode_rejects_bad_states(self):
        with pytest.raises(ValueError):
            encode((0, 0, 0), params(2, 1))
        with pytest.raises(ValueError):
            encode((2, 0), params(2, 1))
        with pytest.raises(ValueError):
            encode((-1, 0), params(2, 1))

    def test_decode_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError):
            decode(-1, params(2, 1))
        with pytest.raises(ValueError):
            decode(4, params(2, 1))

    @pytest.mark.parametrize("p", SMALL_MODELS, ids=SMALL_IDS)
    def test_round_trip_over_full_state_space(self, p):
        for index, state in enumerate(enumerate_states(p)):
            assert encode(state, p) == index
            assert decode(index, p) == state


class TestEnabledEvents:
    def test_single_particle_interior(self):
        p = params(3, 1, alpha=(1.5,), beta=(2.5,), delta=(0.5,))
        got = dict(enabled_events((0, 1, 0), p))
        assert got == {
            Event(EventKind.ARRIVAL, 1, 1): 1.5,
            Event(EventKind.ARRIVAL, 3, 1): 1.5,
            Event(EventKind.HOP_LEFT, 2, 1): 0.5,
            Event(EventKind.HOP_RIGHT, 2, 1): 0.5,
        }

    def test_boundary_particle_two_site_lattice(self):
        p = params(2, 1, alpha=(1.0,), beta=(2.0,), delta=(0.5,))
        got = dict(enabled_events((1, 0), p))
        assert got == {
            Event(EventKind.DEPARTURE, 1, 1): 2.0,
            Event(EventKind.HOP_RIGHT, 1, 1): 0.5,
            Event(EventKind.ARRIVAL, 2, 1): 1.0,
        }
        p_no_hop = params(2, 1, alpha=(1.0,), beta=(2.0,), delta=(0.0,))
        got = dict(enabled_events((1, 0), p_no_hop))
        assert got == {
            Event(EventKind.DEPARTURE, 1, 1): 2.0,
            Event(EventKind.ARRIVAL, 2, 1): 1.0,
        }

    def test_fully_occupied_lattice_only_departs(self):
        p = params(4, 1, beta=(2.0,))
        got = dict(enabled_events((1, 1, 1, 1), p))
        assert got == {
            Event(EventKind.DEPARTURE, 1, 1): 2.0,
            Event(EventKind.DEPARTURE, 4, 1): 2.0,
        }

    def test_immobile_type_lists_no_hops(self):
        p = params(3, 2, delta=(0.0, 1.0))
        kinds = {e.kind for e, _ in enabled_events((1, 0, 2), p) if e.ptype == 1}
        assert EventKind.HOP_LEFT not in kinds and EventKind.HOP_RIGHT not in kinds
        kinds2 = {e.kind for e, _ in enabled_events((1, 0, 2), p) if e.ptype == 2}
        assert EventKind.HOP_LEFT in kinds2

    @pytest.mark.parametrize("p", SMALL_MODELS, ids=SMALL_IDS)
    def test_no_event_targets_an_occupied_site(self, p):
        for state in enumerate_states(p):
            for event, rate in enabled_events(state, p):
                assert rate > 0.0
                if event.kind is EventKind.ARRIVAL:
                    assert state[event.site - 1] == 0
                elif event.kind is EventKind.HOP_LEFT:
                    assert state[event.site - 2] == 0
                elif event.kind is EventKind.HOP_RIGHT:
                    assert state[event.site] == 0

    @pytest.mark.parametrize("p", SMALL_MODELS, ids=SMALL_IDS)
    def test_no_event_listed_twice(self, p):
        for state in enumerate_states(p):
            events = [e for e, _ in enabled_events(state, p)]
            assert len(events) == len(set(events))


PAIRED_KIND = {
    EventKind.ARRIVAL: EventKind.DEPARTURE,
    EventKind.DEPARTURE: EventKind.ARRIVAL,
    EventKind.HOP_LEFT: EventKind.HOP_RIGHT,
    EventKind.HOP_RIGHT: EventKind.HOP_LEFT,
}


class TestEventAlgebra:
    def test_apply_examples(self):
        assert apply_event((0, 0), Event(EventKind.ARRIVAL, 1, 1)) == (1, 0)
        assert apply_event((0, 1, 0), Event(EventKind.HOP_LEFT, 2, 1)) == (1, 0, 0)
        assert apply_event((1, 0), Event(EventKind.DEPARTURE, 1, 1)) == (0, 0)

    @pytest.mark.parametrize(
        "state, event",
        [
            ((1, 0), Event(EventKind.ARRIVAL, 1, 1)),
            ((0, 0, 0), Event(EventKind.ARRIVAL, 2, 1)),
            ((0, 0), Event(EventKind.DEPARTURE, 1, 1)),
            ((2, 0), Event(EventKind.DEPARTURE, 1, 1)),
            ((1, 0), Event(EventKind.HOP_LEFT, 1, 1)),
            ((1, 1), Event(EventKind.HOP_RIGHT, 1, 1)),
            ((0, 1, 1), Event(EventKind.HOP_RIGHT, 2, 1)),
            ((1, 0), Event(EventKind.ARRIVAL, 5, 1)),
            ((0, 0), Event(EventKind.ARRIVAL, 1, 0)),
        ],
    )
    def test_apply_rejects_disabled_events(self, state, event):
        with pytest.raises(EventNotEnabledError):
            apply_event(state, event)

    @pytest.mark.parametrize("p", SMALL_MODELS, ids=SMALL_IDS)
    def test_every_event_has_exactly_one_inverse(self, p):
        for state in enumerate_states(p):
            for event, _ in enabled_events(state, p):
                successor = apply_event(state, event)
                inverses = [
                    e for e, _ in enabled_events(successor, p) if apply_event(successor, e) == state
                ]
                assert len(inverses) == 1
                inverse = inverses[0]
                assert inverse.kind is PAIRED_KIND[event.kind]
                assert inverse.ptype == event.ptype

    @pytest.mark.parametrize("p", SMALL_MODELS, ids=SMALL_IDS)
    def test_hop_pairs_share_one_rate(self, p):
        for state in enumerate_states(p):
            for event, rate in enabled_events(state, p):
                if event.kind not in (EventKind.HOP_LEFT, EventKind.HOP_RIGHT):
                    continue
                successor = apply_event(state, event)
                back = [
                    (e, r)
                    for e, r in enabled_events(successor, p)
                    if apply_event(successor, e) == state
                ]
                (back_event, back_rate), = back
                assert back_rate == rate

    @pytest.mark.parametrize("p", SMALL_MODELS, ids=SMALL_IDS)
    def test_events_change_particle_count_correctly(self, p):
        for state in enumerate_states(p):
            occupied = sum(1 for v in state if v)
            for event, _ in enabled_events(state, p):
                successor = apply_event(state, event)
                after = sum(1 for v in successor if v)
                if event.kind is EventKind.ARRIVAL:
                    assert after == occupied + 1
                elif event.kind is EventKind.DEPARTURE:
                    assert after == occupied - 1
                else:
                    assert after == occupied
                changed = sum(1 for a, b in zip(state, successor) if a != b)
                assert changed in (1, 2)


PUBLIC_API = [
    "__version__",
    "ModelParams",
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
    "NotStationaryError",
    "detailed_balance_residual",
    "kolmogorov_cycle_residual",
    "perturb_hop_rate",
    "reversed_rates_residual",
]

# Names the package no longer has, because no command reads them.  The
# reference model and stepper live in tests/reference.py, with the state
# tuples and their decoding; the configuration writer and the edge count
# moved into the tests; the edge kinds, the balance report and the
# reversed-generator copy went with the code that read them.
REFERENCE_ONLY = [
    "VACANT", "Event", "EventKind", "EventNotEnabledError", "enabled_events", "apply_event",
    "enumerate_states", "encode", "_validate_state", "sample_next_event", "_BOUNDARY_KINDS",
    "joint_from_marginals", "to_dense", "is_irreducible", "search_potential",
    "LatticeState", "decode", "emit_config", "to_dict", "n_edges", "kinds",
    "EDGE_ARRIVAL", "EDGE_DEPARTURE", "EDGE_HOP", "EDGE_CLASS_NAMES",
    "BalanceReport", "worst_pair", "by_class", "reversed_generator",
]


def test_public_api_is_pinned():
    assert sepsim.__all__ == PUBLIC_API
    modules = (sepsim, sepsim.model, sepsim.simulate, sepsim.exact, sepsim.reversibility,
               sepsim.cli)
    for module in modules:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    for owner in modules + (sepsim.exact.Generator, sepsim.cli.RunConfig):
        assert [name for name in REFERENCE_ONLY if hasattr(owner, name)] == [], owner
