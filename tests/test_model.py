import numpy as np
import pytest

from sepsim import (
    Event,
    EventKind,
    EventNotEnabledError,
    ModelParams,
    apply_event,
    decode,
    enabled_events,
    encode,
    enumerate_states,
    hop_rates,
    state_space_size,
)


def params(n=2, k=1, alpha=None, beta=None, delta=None, boundary_hops=True):
    return ModelParams(
        n_sites=n,
        n_types=k,
        alpha=alpha or (1.0,) * k,
        beta=beta or (1.0,) * k,
        delta=delta if delta is not None else (1.0,) * k,
        boundary_hops=boundary_hops,
    )


SMALL_MODELS = [
    params(n, k, boundary_hops=bh)
    for n in (2, 3, 4)
    for k in (1, 2)
    for bh in (True, False)
]


class TestModelParams:
    def test_boundary_hops_defaults_to_true(self):
        p = ModelParams(n_sites=3, n_types=1, alpha=(1.0,), beta=(1.0,), delta=(0.5,))
        assert p.boundary_hops is True

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

    @pytest.mark.parametrize("p", SMALL_MODELS, ids=lambda p: f"n{p.n_sites}k{p.n_types}")
    def test_round_trip_over_full_state_space(self, p):
        for index, state in enumerate(enumerate_states(p)):
            assert encode(state, p) == index
            assert decode(index, p) == state


class TestHopRates:
    def test_two_sites_follow_the_boundary_hops_flag(self):
        assert hop_rates(params(2, 2, delta=(0.5, 3.0))) == (0.5, 3.0)
        assert hop_rates(params(2, 2, delta=(0.5, 3.0), boundary_hops=False)) == (0.0, 0.0)

    def test_longer_lattices_hop_without_boundary_hops(self):
        # Every bond of three or more sites has an interior end.
        assert hop_rates(params(3, 2, delta=(0.5, 3.0), boundary_hops=False)) == (0.5, 3.0)

    def test_a_zero_hop_rate_stays_zero(self):
        for n, bh in ((2, True), (2, False), (3, True), (3, False)):
            assert hop_rates(params(n, 2, delta=(0.0, 3.0), boundary_hops=bh))[0] == 0.0


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

    def test_interior_hops_do_not_depend_on_boundary_flag(self):
        p = params(3, 1, alpha=(1.5,), beta=(2.5,), delta=(0.5,), boundary_hops=False)
        got = dict(enabled_events((0, 1, 0), p))
        assert Event(EventKind.HOP_LEFT, 2, 1) in got
        assert Event(EventKind.HOP_RIGHT, 2, 1) in got

    def test_boundary_particle_two_site_lattice(self):
        p = params(2, 1, alpha=(1.0,), beta=(2.0,), delta=(0.5,))
        got = dict(enabled_events((1, 0), p))
        assert got == {
            Event(EventKind.DEPARTURE, 1, 1): 2.0,
            Event(EventKind.HOP_RIGHT, 1, 1): 0.5,
            Event(EventKind.ARRIVAL, 2, 1): 1.0,
        }
        p_no_hop = params(2, 1, alpha=(1.0,), beta=(2.0,), delta=(0.5,), boundary_hops=False)
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

    @pytest.mark.parametrize("p", SMALL_MODELS, ids=lambda p: f"n{p.n_sites}k{p.n_types}")
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

    @pytest.mark.parametrize("p", SMALL_MODELS, ids=lambda p: f"n{p.n_sites}k{p.n_types}")
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

    @pytest.mark.parametrize("p", SMALL_MODELS, ids=lambda p: f"n{p.n_sites}k{p.n_types}")
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

    @pytest.mark.parametrize("p", SMALL_MODELS, ids=lambda p: f"n{p.n_sites}k{p.n_types}")
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

    @pytest.mark.parametrize("p", SMALL_MODELS, ids=lambda p: f"n{p.n_sites}k{p.n_types}")
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
