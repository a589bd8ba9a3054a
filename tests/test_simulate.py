import dataclasses
import functools
import math
import os
import pickle
import random
import threading
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest

from sepsim import (
    Event,
    EventKind,
    ModelParams,
    SimConfig,
    SimStats,
    apply_event,
    decode,
    enabled_events,
    encode,
    hop_rates,
    merge_replicas,
    product_form,
    replica_rng,
    run_replica,
    run_replicas,
    sample_next_event,
    state_space_size,
)
import sepsim.simulate as simulate


def params(n=2, k=1, alpha=None, beta=None, delta=None, boundary_hops=True):
    return ModelParams(
        n_sites=n,
        n_types=k,
        alpha=alpha or (1.0,) * k,
        beta=beta or (1.0,) * k,
        delta=delta if delta is not None else (1.0,) * k,
        boundary_hops=boundary_hops,
    )


TWO_SITE = params(2, 1, alpha=(1.0,), beta=(2.0,), delta=(1.0,))

# Models and warm-up fractions that run_replica is replayed against.
DIRECT_METHOD_CASES = [
    (TWO_SITE, 0.0),
    (params(6, 3, alpha=(1.0, 0.5, 2.0), beta=(1.5, 1.0, 0.7), delta=(1.0, 0.0, 2.0)), 0.0),
    (params(2, 2, alpha=(1.0, 0.5), beta=(2.0, 1.0), delta=(1.0, 3.0), boundary_hops=False), 0.0),
    (params(5, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0)), 0.3),
    (params(3, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0)), 0.1),
]
DIRECT_METHOD_IDS = [
    "two-site", "n6k3-immobile-type", "n2k2-no-boundary-hops", "n5k2-warmup", "n3k2-warmup",
]
# A K=3 memo lattice with an immobile type and rates over two decades.
N4K3_ZERO_HOP = params(4, 3, alpha=(0.2, 3.0, 1.0), beta=(1.5, 0.1, 8.0), delta=(2.0, 0.0, 0.5))


def replay(model, cfg, replica_index, track=False):
    """Reference for run_replica: the window statistics of ``cfg.max_events``
    steps of sample_next_event and apply_event from the empty lattice."""
    rng = replica_rng(cfg.seed, replica_index)
    n, k = model.n_sites, model.n_types
    state, t = (0,) * n, 0.0
    for step in range(cfg.max_events):
        if step in (0, cfg.warmup_events):  # statistics restart when the window opens
            t_start, start_counts = t, np.bincount(state, minlength=k + 1)[1:]
            occupancy, last_change = np.zeros((n, k + 1)), [t] * n
            arrivals, departures = np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64)
            sojourns = [[] for _ in range(k)]
            arrived = [None] * n  # arrival time of each site's particle, if it arrived in the window
            state_time = np.zeros(state_space_size(model)) if track else None
        dt, event = sample_next_event(state, model, rng)
        if track:
            state_time[encode(state, model)] += dt
        t += dt
        after = apply_event(state, event)
        for i0 in range(n):
            if after[i0] != state[i0]:
                occupancy[i0, state[i0]] += t - last_change[i0]
                last_change[i0] = t
        state, i0, k0 = after, event.site - 1, event.ptype - 1
        if event.kind is EventKind.ARRIVAL:
            arrivals[k0] += 1
            arrived[i0] = t
        elif event.kind is EventKind.DEPARTURE:
            departures[k0] += 1
            if arrived[i0] is not None:
                sojourns[k0].append(t - arrived[i0])
            arrived[i0] = None
        else:
            dest0 = i0 + 1 if event.kind is EventKind.HOP_RIGHT else i0 - 1
            arrived[dest0], arrived[i0] = arrived[i0], None
    for i0 in range(n):
        occupancy[i0, state[i0]] += t - last_change[i0]
    return SimStats(
        n_sites=n,
        n_types=k,
        total_time=t - t_start,
        site_occupancy_time=occupancy,
        arrivals_by_type=arrivals,
        departures_by_type=departures,
        start_counts_by_type=start_counts,
        end_counts_by_type=np.bincount(state, minlength=k + 1)[1:],
        completed_sojourns=sojourns,
        event_count=cfg.max_events,
        state_occupancy_time=state_time,
    )


class ScriptedRng:
    """Duck-typed rng yielding a fixed sequence of uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class TestSimConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(seed=-1),
            dict(seed=2**64),
            dict(max_events=0),
            dict(warmup_fraction=1.0),
            dict(warmup_fraction=-0.1),
            dict(replicas=0),
            dict(warmup_fraction="x"),
            dict(max_events=True),
            dict(replicas=True),
            dict(warmup_fraction=False),
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        base = dict(seed=0, max_events=10, warmup_fraction=0.0, replicas=1)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SimConfig(**base)

    def test_warmup_events_floor(self):
        assert SimConfig(seed=0, max_events=1_000_000, warmup_fraction=0.2).warmup_events == 200_000
        assert SimConfig(seed=0, max_events=10, warmup_fraction=0.0).warmup_events == 0


class TestRngStreams:
    def test_same_inputs_same_stream(self):
        a = replica_rng(42, 3).random(5)
        b = replica_rng(42, 3).random(5)
        assert np.array_equal(a, b)

    def test_different_replicas_different_streams(self):
        a = replica_rng(42, 0).random(5)
        b = replica_rng(42, 1).random(5)
        assert not np.array_equal(a, b)

    def test_array_fill_equals_sequential_scalars(self):
        # The buffered simulation loop relies on this numpy property.
        block = replica_rng(7, 0).random(64)
        rng = replica_rng(7, 0)
        singles = np.array([rng.random() for _ in range(64)])
        assert np.array_equal(block, singles)

    def test_block_boundaries_do_not_change_the_stream(self):
        rng = replica_rng(7, 0)
        split = np.concatenate([rng.random(13), rng.random(51)])
        whole = replica_rng(7, 0).random(64)
        assert np.array_equal(split, whole)


class TestSampleNextEvent:
    def test_empty_lattice_rate_and_pick(self):
        # (0,0) with alpha=1: two arrival clocks, total rate 2.
        u1, u2 = 0.5, 0.9
        dt, event = sample_next_event((0, 0), TWO_SITE, ScriptedRng([u1, u2]))
        assert dt == pytest.approx(-math.log1p(-u1) / 2.0, abs=0.0)
        assert event == Event(EventKind.ARRIVAL, 2, 1)  # second half of the rate mass
        _, event = sample_next_event((0, 0), TWO_SITE, ScriptedRng([0.5, 0.1]))
        assert event == Event(EventKind.ARRIVAL, 1, 1)

    def test_single_particle_total_rate_four(self):
        p = params(3, 1, alpha=(1.0,), beta=(2.0,), delta=(1.0,))
        # events: arrival s1, arrival s3, hop left, hop right -- each rate 1
        dt, _ = sample_next_event((0, 1, 0), p, ScriptedRng([0.5, 0.0]))
        assert dt == pytest.approx(-math.log1p(-0.5) / 4.0, abs=0.0)
        picked = {
            sample_next_event((0, 1, 0), p, ScriptedRng([0.5, u])).__getitem__(1)
            for u in (0.1, 0.35, 0.6, 0.85)
        }
        assert len(picked) == 4  # each quarter of the mass picks a different event

    def test_hops_are_ordered_by_type_then_bond(self):
        # (0, 2, 1, 0): four arrivals (rate 1 each), then type 1's right hop
        # from site 3 (rate 1) before type 2's left hop from site 2 (rate 3),
        # although site order would list the type-2 hop first.
        p = params(4, 2, delta=(1.0, 3.0))
        state = (0, 2, 1, 0)
        dt, event = sample_next_event(state, p, ScriptedRng([0.5, 4.5 / 8.0]))
        assert dt == pytest.approx(-math.log1p(-0.5) / 8.0, abs=0.0)
        assert event == Event(EventKind.HOP_RIGHT, 3, 1)
        _, event = sample_next_event(state, p, ScriptedRng([0.5, 6.0 / 8.0]))
        assert event == Event(EventKind.HOP_LEFT, 2, 2)
        _, event = sample_next_event(state, p, ScriptedRng([0.5, 3.5 / 8.0]))
        assert event == Event(EventKind.ARRIVAL, 4, 2)

    def test_full_lattice_departures_split_evenly(self):
        p = params(3, 1, beta=(2.0,))
        _, left = sample_next_event((1, 1, 1), p, ScriptedRng([0.5, 0.25]))
        _, right = sample_next_event((1, 1, 1), p, ScriptedRng([0.5, 0.75]))
        assert left == Event(EventKind.DEPARTURE, 1, 1)
        assert right == Event(EventKind.DEPARTURE, 3, 1)

    def test_mean_holding_time_empty_lattice(self):
        rng = replica_rng(5, 0)
        draws = [sample_next_event((0, 0), TWO_SITE, rng)[0] for _ in range(4000)]
        assert np.mean(draws) == pytest.approx(0.5, rel=0.05)


class UnitRateWalk(simulate._Walk):
    """A walk whose every state has total rate 1, fed fixed holding-time
    uniforms: its holding times are ``-log1p(-u1)`` as the walks compute them."""

    def __init__(self, holding):
        self.uniforms = np.zeros(2 * len(holding))
        self.uniforms[0::2] = holding
        self.drawn = 0

    def rng_random(self, size):
        self.drawn += size
        return self.uniforms[self.drawn - size : self.drawn].copy()

    def _walk(self, picks):
        return np.ones(len(picks))


class TestHoldingTimes:
    def test_walk_blocks_match_math_log1p_bitwise(self):
        # The walks take a block's log1p in one numpy call over a reversed
        # view, which runs the C library's log1p like math.log1p (and so
        # sample_next_event).  numpy's vectorised loop, which it takes for
        # contiguous and forward-strided arrays, rounds differently on some
        # uniforms; a change of route that reaches it differs here.
        edges = [0.0, 2.0**-53, 2.0**-29, 1.0 - 2.0**-0.5, 0.5, 1.0 - 2.0**-53]
        holding = np.concatenate((edges, replica_rng(11, 0).random(1 << 20), edges))
        walk = UnitRateWalk(holding)
        got = np.concatenate([dt for _, dt in walk.blocks(len(holding))])
        expected = np.array([-math.log1p(-u) for u in holding.tolist()])
        assert walk.drawn == 2 * len(holding)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def kmc_small_rates(seed):
    """The README model at N=5, K=2, each rate times a factor drawn
    log-uniformly from [0.8, 1.25], as the benchmark draws them."""
    rng = random.Random(seed)

    def jitter(base):
        return tuple(b * math.exp(rng.uniform(math.log(0.8), math.log(1.25))) for b in base)

    return params(5, 2, alpha=jitter((1.0, 2.0)), beta=jitter((2.0, 1.0)), delta=jitter((1.0, 1.0)))


PICK_TABLE_CASES = [
    kmc_small_rates(1),
    N4K3_ZERO_HOP,
    params(2, 2, alpha=(1.0, 0.5), beta=(2.0, 1.0), delta=(1.0, 3.0), boundary_hops=False),
    params(5, 2, alpha=(1e-6, 1e3), beta=(1e3, 1e-3)),
]
PICK_TABLE_IDS = ["n5k2-jittered", "n4k3-zero-hop", "n2k2-no-boundary-hops", "n5k2-stiff"]
# The widest lattice whose records fit, at rates spread over a decade: 2500
# rate profiles of up to 98 events.
WIDE = params(2, 49, alpha=tuple(10 ** (j / 49) for j in range(49)),
              beta=tuple(10 ** ((j * 7 % 49) / 49) for j in range(49)),
              delta=tuple(10 ** ((j * 3 % 49) / 49) for j in range(49)))


def reference_order(state, model):
    """The enabled events of ``state`` in sample_next_event's order: the
    boundary events as enabled_events lists them, then the hops, stably by
    type."""
    events = [event for event, _ in enabled_events(state, model)]
    boundary = [event for event in events if event.kind in (EventKind.ARRIVAL, EventKind.DEPARTURE)]
    hops = [event for event in events if event not in boundary]
    return boundary + sorted(hops, key=lambda event: event.ptype)


def rate_profile(state, model):
    """The rate profile of ``state`` read off its enabled events: the values
    of site 1 and site N, then its number of hops of each type."""
    hops = [event.ptype for event, _ in enabled_events(state, model)
            if event.kind not in (EventKind.ARRIVAL, EventKind.DEPARTURE)]
    return (state[0], state[-1], *(hops.count(k) for k in range(1, model.n_types + 1)))


def worst_profiles(n, k):
    """The rate profiles of the (K+1)^N states with every type mobile, one
    column each, and their numbers of events, from the lattice alone."""
    occ = np.indices((k + 1,) * n).reshape(n, -1)
    near, far = occ[:-1], occ[1:]
    hop = np.where(near == 0, far, np.where(far == 0, near, 0))  # each bond's hopping type, or 0
    counts = [np.count_nonzero(hop == t, axis=0) for t in range(1, k + 1)]
    events = sum(np.where(site == 0, k, 1) for site in (occ[0], occ[-1])) + np.count_nonzero(hop, axis=0)
    profiles, first = np.unique(np.stack([occ[0], occ[-1], *counts]), axis=1, return_index=True)
    return profiles, events, events[first]


class TestPickTable:
    @pytest.mark.parametrize("model", [*PICK_TABLE_CASES, WIDE], ids=[*PICK_TABLE_IDS, "n2k49-wide"])
    def test_steps_follow_the_reference_rules(self, model):
        # Every state's step, as the memo walk reads it, against the
        # reference stepper's rules: its successors in order, its total
        # rate, which is its profile's, and its pick row, which every state
        # of its profile shares.
        table = simulate._MemoTable(model)
        sums, delta = simulate._block_sums(model), hop_rates(model)
        rows = {}
        m = state_space_size(model)
        assert len(table.rows) == len(table.successors) == len(table.totals) == table.values.shape[1] == m
        for s, (row, successors) in enumerate(zip(table.rows, table.successors)):
            state = decode(s, model)
            assert table.values[:, s].tolist() == list(state)
            expected = [encode(apply_event(state, event), model) for event in reference_order(state, model)]
            assert list(successors) == expected
            profile = rate_profile(state, model)
            assert rows.setdefault(profile, row) == row
            uppers, total = simulate._profile_ends(profile, sums, delta)
            assert len(uppers) == len(successors) and table.totals[s] == total
            rates = [rate for _, rate in enabled_events(state, model)]
            assert total == pytest.approx(math.fsum(rates), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("model", PICK_TABLE_CASES, ids=PICK_TABLE_IDS)
    def test_picks_equal_the_bisection(self, model):
        # Each profile's bisection pick changes only at its thresholds, all
        # of which are cuts, and the table's only from cell to cell, so the
        # two agree for every uniform once they agree on both sides of every
        # cut: at the cut and at the double below it.
        table = simulate._MemoTable(model)
        cuts = table.cuts
        assert cuts[0] > 0.0 and cuts[-1] < 1.0
        u = np.concatenate(([0.0, 1.0 - 2.0**-53], cuts, np.nextafter(cuts, 0.0)))
        cells = table.cells(u)
        assert cells == np.searchsorted(cuts, u, side="right").tolist()
        sums, delta = simulate._block_sums(model), hop_rates(model)
        # Every state's row, once for each profile it is the row of.
        rows = {(rate_profile(decode(s, model), model), row) for s, row in enumerate(table.rows)}
        for profile, row in rows:
            uppers, total = simulate._profile_ends(profile, sums, delta)
            assert len(row) == len(cuts) + 1
            assert [row[c] for c in cells] == [bisect_right(uppers, x * total) for x in u.tolist()]

    def test_record_budget_bounds_the_pick_table(self):
        # Every lattice the record budget admits, with every type mobile
        # (the most rate profiles) and every threshold distinct (the most
        # cells, whatever the rates): no table's rows and cell grid pass
        # 19,866,226 bytes, and no state has 256 events, so a byte holds
        # each pick.  Enumerated from the lattice alone; no table is built.
        worst = {}
        k = 1
        while (k + 1) ** 2 * (2 * k + 1) <= simulate._RECORD_CACHE_LIMIT:
            n = 2
            while (k + 1) ** n * (n + 2 * k - 1) <= simulate._RECORD_CACHE_LIMIT:
                profiles, events, ends = worst_profiles(n, k)
                assert events.max() < 256
                cuts = int((ends - 1).sum())  # the last end's threshold is 1
                worst[n, k] = profiles.shape[1] * (cuts + 1) + 8 * (1 << (8 * cuts).bit_length())
                n += 1
            k += 1
        assert len(worst) == 97
        assert max(worst, key=worst.get) == (3, 18) and worst[3, 18] == 19_866_226
        # The enumeration gives the profiles of the table's own rules.
        model = kmc_small_rates(1)
        profiles, _, _ = worst_profiles(model.n_sites, model.n_types)
        assert set(map(tuple, profiles.T.tolist())) == set(simulate._state_events(model)[1])

    @pytest.mark.parametrize("model", [params(9, 2), params(14, 1)], ids=["n9k2", "n14k1"])
    def test_step_table_build_peak_is_near_what_it_leaves(self, model):
        # The int32 successor tensor and its mask are dropped before the
        # successors become lists, so the traced peak of building the
        # model's table is at most 1.5 times what the build leaves.
        def traced_build():
            simulate._memo_table.cache_clear()
            tracemalloc.start()
            try:
                simulate._memo_table(model)
                return tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
                simulate._memo_table.cache_clear()

        traced_build()  # the first traced build carries one-off allocations
        left, peak = traced_build()
        assert peak <= 1.5 * left


class TestRunReplica:
    def test_bitwise_determinism(self):
        cfg = SimConfig(seed=9, max_events=5000, warmup_fraction=0.25)
        assert run_replica(TWO_SITE, cfg, 1) == run_replica(TWO_SITE, cfg, 1)

    @pytest.mark.parametrize("model, warmup_fraction", DIRECT_METHOD_CASES, ids=DIRECT_METHOD_IDS)
    def test_matches_manual_direct_method_loop(self, model, warmup_fraction):
        # The sampler's lattice bookkeeping, arithmetic successor indices and
        # window statistics against enabled_events / apply_event, one step
        # at a time.
        cfg = SimConfig(seed=7, max_events=2000, warmup_fraction=warmup_fraction)
        stats = run_replica(model, cfg, 0, track_state_occupancy=True)
        assert stats == replay(model, cfg, 0, track=True)

    @pytest.mark.parametrize(
        "model, warmup_fraction",
        [
            *DIRECT_METHOD_CASES,
            (N4K3_ZERO_HOP, 0.2),
            (params(30, 3, alpha=(1.0, 2.0, 0.5), beta=(2.0, 1.0, 0.4), delta=(1.0, 0.3, 2.0)), 0.2),
        ],
        ids=[*DIRECT_METHOD_IDS, "n4k3-zero-hop", "n30k3"],
    )
    def test_memo_and_incremental_paths_agree(self, monkeypatch, model, warmup_fraction):
        # Each walk forced in turn: the per-state memo and the per-type
        # sorted bond lists must pick bitwise the same events, and the one
        # window pass over either must replay through the reference stepper.
        # N=30/K=3 is off the memo by its records, so it runs the lattice
        # walk alone.
        track = state_space_size(model) <= simulate.STATE_TRACKING_LIMIT
        memo_fits = simulate._memo_fits(model)
        assert memo_fits == (model.n_sites < 30)
        walks = (True, False) if memo_fits else (False,)
        for seed in range(3):
            cfg = SimConfig(seed=seed, max_events=2000, warmup_fraction=warmup_fraction)
            runs = []
            for memo in walks:
                monkeypatch.setattr(simulate, "_memo_fits", lambda _params, memo=memo: memo)
                runs.append(run_replica(model, cfg, 1, track_state_occupancy=track))
            incremental_stats = runs[-1]
            assert all(stats == incremental_stats for stats in runs)
            assert (incremental_stats.state_occupancy_time is not None) == track
            assert incremental_stats == replay(model, cfg, 1, track)

    def test_path_rule_keeps_the_memo_within_budget(self):
        # The memo holds every state's records at once only where they fit.
        # The rule is a closed form of N and K: it builds no table.
        simulate._memo_table.cache_clear()
        assert simulate._memo_fits(params(9, 2))  # 3^9 states x 12 events
        assert not simulate._memo_fits(params(10, 2))
        assert simulate._memo_fits(params(14, 1))  # 2^14 states x 15 events
        assert not simulate._memo_fits(params(15, 1))
        assert simulate._memo_fits(WIDE)
        assert simulate._memo_table.cache_info().currsize == 0

    @pytest.mark.parametrize(
        "model, cfg, expected, sums",
        [
            (
                params(5, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0)),
                SimConfig(seed=1, max_events=20_000, warmup_fraction=0.2),
                ("0x1.8fcf4c9b6a050p+11", [1802, 3573], [1802, 3573], "0x1.f3c31fc244864p+13"),
                None,
            ),
            (
                params(30, 3, alpha=(1.0, 2.0, 0.5), beta=(2.0, 1.0, 0.4), delta=(1.0, 0.3, 2.0)),
                SimConfig(seed=2, max_events=3000, warmup_fraction=0.2),
                ("0x1.7578e1e88274ap+7", [77, 153, 36], [77, 151, 35], "0x1.5e2153c9fa4d5p+12"),
                None,
            ),
            (
                params(5, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0)),
                SimConfig(seed=3, max_events=100_003, warmup_fraction=0.25),
                ("0x1.ccf25dcfa9dafp+13", [8607, 16836], [8605, 16838], "0x1.20177aa1ca28ep+16"),
                (["0x1.4ea1161fe367cp+13", "0x1.4706116b4b342p+15"], "0x1.ccf25dcfa9db6p+13"),
            ),
            (
                params(10, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0)),
                SimConfig(seed=4, max_events=50_000, warmup_fraction=0.2),
                ("0x1.6129687166b0cp+12", [3120, 6546], [3120, 6548], "0x1.b973c28dc05cep+15"),
                (["0x1.8f18ab6a1ba52p+12", "0x1.003e1d84934e6p+15"], "0x1.6129687166b25p+12"),
            ),
        ],
        ids=["n5k2", "n30k3", "n5k2-blocks", "n10k2-incremental"],
    )
    def test_stream_and_event_order_are_pinned(self, model, cfg, expected, sums):
        # Fixed-seed figures recorded under RNG_SCHEME's event order (n5k2
        # runs the memo walk, n30k3 the lattice walk): any change to the
        # uniform stream, the event order or the upper-end sums shows here.
        # n5k2-blocks runs the memo walk over several blocks of uniforms,
        # with state occupancy tracked; it also pins each type's sojourn sum
        # and the state-occupancy sum.  n10k2-incremental pins the same sums
        # on the lattice walk (3^10 states, off the memo).
        stats = run_replica(model, cfg, 1, track_state_occupancy=sums is not None)
        observed = (
            stats.total_time.hex(),
            stats.arrivals_by_type.tolist(),
            stats.departures_by_type.tolist(),
            float(stats.site_occupancy_time.sum()).hex(),
        )
        assert observed == expected
        if sums is not None:
            sojourn_sums = [math.fsum(times).hex() for times in stats.completed_sojourns]
            assert (sojourn_sums, float(stats.state_occupancy_time.sum()).hex()) == sums

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("memo", [True, False], ids=["memo", "incremental"])
    @pytest.mark.parametrize(
        "model, warmup_fraction",
        [*DIRECT_METHOD_CASES[3:], (TWO_SITE, 0.3), (N4K3_ZERO_HOP, 0.2)],
        ids=[*DIRECT_METHOD_IDS[3:], "two-site-warmup", "n4k3-zero-hop"],
    )
    def test_statistics_carry_across_blocks(self, monkeypatch, model, warmup_fraction, memo, block):
        # Blocks of 1 and 7 events, the warm-up ending inside a block of 7:
        # every running statistic crosses many block edges, on each walk.
        # On two sites a hop changes both boundary sites in one event, which
        # is neither an arrival nor a departure.
        cfg = SimConfig(seed=5, max_events=2000, warmup_fraction=warmup_fraction)
        assert cfg.warmup_events % 7
        monkeypatch.setattr(simulate, "_memo_fits", lambda _params: memo)
        whole = run_replica(model, cfg, 2, track_state_occupancy=True)
        monkeypatch.setattr(simulate, "_EVENT_BLOCK", block)
        split = run_replica(model, cfg, 2, track_state_occupancy=True)
        assert split == whole
        assert split == replay(model, cfg, 2, track=True)

    def test_record_cache_memory_is_bounded(self, monkeypatch):
        # On 4^30 states nearly every event reaches a new state; the path
        # rule keeps such a lattice off the memo, so doubling the run leaves
        # the traced peak about where it was.
        monkeypatch.setattr(simulate, "_EVENT_BLOCK", 1 << 8)
        p = params(30, 3)

        def traced_peak(max_events):
            tracemalloc.start()
            try:
                run_replica(p, SimConfig(seed=0, max_events=max_events), 0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(1000)  # the first traced run carries one-off allocations
        once = traced_peak(1000)
        assert traced_peak(2000) <= 1.1 * once

    def test_occupancy_rows_sum_to_total_time(self):
        cfg = SimConfig(seed=3, max_events=20_000, warmup_fraction=0.2)
        stats = run_replica(params(4, 2, alpha=(1.0, 0.5), beta=(0.5, 1.5)), cfg, 0)
        sums = stats.site_occupancy_time.sum(axis=1)
        assert np.abs(sums - stats.total_time).max() <= 1e-9 * stats.total_time

    def test_particle_conservation_without_warmup(self):
        cfg = SimConfig(seed=11, max_events=10_001, warmup_fraction=0.0)
        stats = run_replica(params(3, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0)), cfg, 0)
        assert np.array_equal(stats.start_counts_by_type, [0, 0])
        assert np.array_equal(
            stats.arrivals_by_type - stats.departures_by_type, stats.end_counts_by_type
        )

    def test_particle_conservation_with_warmup(self):
        cfg = SimConfig(seed=11, max_events=10_001, warmup_fraction=0.3)
        stats = run_replica(params(3, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0)), cfg, 0)
        assert np.array_equal(
            stats.arrivals_by_type - stats.departures_by_type,
            stats.end_counts_by_type - stats.start_counts_by_type,
        )

    def test_sojourns_only_from_full_window_lifetimes(self):
        cfg = SimConfig(seed=19, max_events=4000, warmup_fraction=0.5)
        stats = run_replica(TWO_SITE, cfg, 0)
        total = sum(len(v) for v in stats.completed_sojourns)
        assert 0 < total <= int(stats.arrivals_by_type.sum())
        assert all(v > 0.0 for v in stats.completed_sojourns[0])

    def test_event_count_includes_warmup(self):
        cfg = SimConfig(seed=1, max_events=1000, warmup_fraction=0.4)
        assert run_replica(TWO_SITE, cfg, 0).event_count == 1000

    def test_vacancy_fraction_matches_closed_form(self):
        # Site-1 vacancy of the 2-site model is 2/3; compare across replicas.
        cfg = SimConfig(seed=23, max_events=100_000, warmup_fraction=0.2)
        fractions = []
        for index in range(5):
            stats = run_replica(TWO_SITE, cfg, index)
            fractions.append(stats.site_occupancy_time[0, 0] / stats.total_time)
        fractions = np.array(fractions)
        stderr = fractions.std(ddof=1) / np.sqrt(len(fractions))
        assert abs(fractions.mean() - 2.0 / 3.0) <= 3.0 * stderr

    def test_balanced_rates_visit_states_uniformly(self):
        p = params(2, 1)
        cfg = SimConfig(seed=29, max_events=200_000, warmup_fraction=0.2)
        stats = run_replica(p, cfg, 0, track_state_occupancy=True)
        empirical = stats.state_occupancy_time / stats.total_time
        assert np.abs(empirical - 0.25).max() <= 0.02

    def test_empirical_joint_distribution_converges(self):
        # Time-weighted joint state occupancy vs the closed form, pooled
        # over 10 replicas adding up to 1e6 post-warm-up events.
        cfg = SimConfig(seed=31, max_events=125_000, warmup_fraction=0.2)
        merged = merge_replicas(
            [run_replica(TWO_SITE, cfg, index, track_state_occupancy=True) for index in range(10)]
        )
        empirical = merged.state_occupancy_time / merged.total_time
        tv = 0.5 * np.abs(empirical - product_form(TWO_SITE)).sum()
        assert tv <= 0.01

    def test_arrival_rate_matches_closed_form(self):
        p = params(3, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0))
        cfg = SimConfig(seed=37, max_events=200_000, warmup_fraction=0.2)
        stats = run_replica(p, cfg, 0)
        denominator = 1.0 + sum(a / b for a, b in zip(p.alpha, p.beta))
        for k0 in range(p.n_types):
            expected = 2.0 * p.alpha[k0] / denominator
            observed = stats.arrivals_by_type[k0] / stats.total_time
            stderr = np.sqrt(stats.arrivals_by_type[k0]) / stats.total_time
            assert abs(observed - expected) <= 3.0 * stderr

    def test_mean_sojourn_matches_closed_form(self):
        p = params(3, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0))
        cfg = SimConfig(seed=41, max_events=200_000, warmup_fraction=0.2)
        stats = run_replica(p, cfg, 0)
        for k0 in range(p.n_types):
            samples = np.asarray(stats.completed_sojourns[k0])
            expected = p.n_sites / (2.0 * p.beta[k0])
            stderr = samples.std(ddof=1) / np.sqrt(samples.size)
            assert abs(samples.mean() - expected) <= 3.0 * stderr

    def test_state_tracking_limit(self):
        huge = params(25, 2)
        assert state_space_size(huge) > 2**20
        with pytest.raises(ValueError):
            run_replica(huge, SimConfig(seed=0, max_events=1), 0, track_state_occupancy=True)

    def test_negative_replica_index_rejected(self):
        with pytest.raises(ValueError):
            run_replica(TWO_SITE, SimConfig(seed=0, max_events=1), -1)

    def test_large_lattice_runs_without_full_state_table(self):
        # 4^30 states: the lattice walk must not enumerate the space.
        p = params(30, 3, alpha=(1.0, 1.0, 1.0), beta=(1.0, 1.0, 1.0), delta=(1.0, 1.0, 1.0))
        cfg = SimConfig(seed=43, max_events=5000, warmup_fraction=0.0)
        stats = run_replica(p, cfg, 0)
        assert stats.event_count == 5000
        assert stats.site_occupancy_time.shape == (30, 4)


class TestMergeReplicas:
    def setup_method(self):
        self.cfg = SimConfig(seed=5, max_events=4000, warmup_fraction=0.25)
        self.a = run_replica(TWO_SITE, self.cfg, 0)
        self.b = run_replica(TWO_SITE, self.cfg, 1)
        self.c = run_replica(TWO_SITE, self.cfg, 2)

    def test_merge_of_one_is_identity(self):
        assert merge_replicas([self.a]) == self.a

    def test_merge_of_one_is_an_independent_copy(self):
        cfg = SimConfig(seed=5, max_events=4000)
        original = run_replica(TWO_SITE, cfg, 0, track_state_occupancy=True)
        copied = merge_replicas([original])
        copied.completed_sojourns[0][0] = -1.0
        copied.site_occupancy_time[0, 0] = -1.0
        assert -1.0 not in original.completed_sojourns[0]
        assert original.site_occupancy_time[0, 0] != -1.0

    def test_merge_is_commutative(self):
        assert merge_replicas([self.a, self.b]) == merge_replicas([self.b, self.a])

    def test_merge_is_permutation_invariant(self):
        merged = merge_replicas([self.a, self.b, self.c])
        assert merged == merge_replicas([self.c, self.a, self.b])
        assert merged == merge_replicas([self.b, self.c, self.a])

    def test_merged_totals_are_sums(self):
        merged = merge_replicas([self.a, self.b])
        assert merged.total_time == self.a.total_time + self.b.total_time
        assert merged.event_count == self.a.event_count + self.b.event_count
        assert np.array_equal(
            merged.arrivals_by_type, self.a.arrivals_by_type + self.b.arrivals_by_type
        )
        assert np.array_equal(
            np.sort(np.concatenate((self.a.completed_sojourns[0], self.b.completed_sojourns[0]))),
            merged.completed_sojourns[0],
        )

    def test_replica_count_in_config_does_not_change_streams(self):
        # replicas=4 run equals the merge of four single-replica runs with
        # the same derived streams.
        four = SimConfig(seed=5, max_events=4000, warmup_fraction=0.25, replicas=4)
        one = SimConfig(seed=5, max_events=4000, warmup_fraction=0.25, replicas=1)
        merged_four = merge_replicas([run_replica(TWO_SITE, four, i) for i in range(4)])
        merged_ones = merge_replicas([run_replica(TWO_SITE, one, i) for i in range(4)])
        assert merged_four == merged_ones

    def test_mixed_models_rejected(self):
        other = run_replica(params(3, 1), self.cfg, 0)
        with pytest.raises(ValueError):
            merge_replicas([self.a, other])

    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError):
            merge_replicas([])


class NoRebuild(Exception):
    """An exception that pickles but cannot be rebuilt from its pickle:
    its constructor takes two arguments, and its args hold one."""

    def __init__(self, what, how):
        super().__init__(f"{what} {how}")


class TestRunReplicas:
    N5K2 = params(5, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0))
    N30K3 = params(30, 3, alpha=(1.0, 2.0, 0.5), beta=(2.0, 1.0, 0.4), delta=(1.0, 0.3, 2.0))

    @pytest.fixture
    def pools(self, monkeypatch):
        """Pool every run of two or more replicas, whatever its size, on 2
        usable CPUs, and list the pid of each child forked."""
        forked = []
        fork = os.fork

        def counted_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(simulate, "_POOL_MIN_EVENTS", 0)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
        return forked

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize(
        "model, cfg, track",
        [
            (N5K2, SimConfig(seed=7, max_events=20_000, warmup_fraction=0.2, replicas=3), True),
            (N30K3, SimConfig(seed=7, max_events=3000, replicas=2), False),
        ],
        ids=["n5k2-tracked", "n30k3"],
    )
    def test_pooled_equals_serial(self, pools, model, cfg, track):
        # On 2 CPUs the caller forks one child; with 3 replicas the caller
        # runs replicas 0 and 2 and the child replica 1.
        pooled = run_replicas(model, cfg, track_state_occupancy=track)
        assert len(pools) == 1
        serial = [run_replica(model, cfg, i, track_state_occupancy=track) for i in range(cfg.replicas)]
        assert pooled == serial

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("replicas", [2, 3, 4, 5])
    def test_pooled_equals_serial_for_each_share(self, pools, monkeypatch, replicas, cpus):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
        cfg = SimConfig(seed=5, max_events=1000, replicas=replicas)
        pooled = run_replicas(self.N5K2, cfg)
        assert len(pools) == min(replicas, cpus) - 1
        assert pooled == [run_replica(self.N5K2, cfg, i) for i in range(replicas)]
        self.assert_no_child_left()

    def test_threaded_callers_stay_in_process(self, pools):
        cfg = SimConfig(seed=7, max_events=2000, replicas=2)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(10.0,))
        other.start()
        try:
            stats = run_replicas(self.N5K2, cfg)
        finally:
            release.set()
            other.join(10.0)
        assert not other.is_alive()
        assert pools == []
        assert stats == [run_replica(self.N5K2, cfg, i) for i in range(2)]

    def test_no_thread_or_child_outlives_the_call(self, pools):
        cfg = SimConfig(seed=7, max_events=2000, replicas=2)
        run_replicas(self.N5K2, cfg)
        run_replicas(self.N5K2, cfg)
        assert len(pools) == 2
        assert threading.active_count() == 1
        self.assert_no_child_left()

    def test_step_table_is_built_once_per_model(self, monkeypatch, pools):
        # A model's memo table is built once per process: a second replica
        # in process reuses it, and a pooled run builds it in the caller
        # before the fork, so no child builds its own.
        parent, built = os.getpid(), []
        build = simulate._MemoTable

        def counted(model):
            assert os.getpid() == parent, "a forked child built the memo table"
            built.append(model)
            return build(model)

        monkeypatch.setattr(simulate, "_memo_table", functools.lru_cache(maxsize=1)(counted))
        cfg = SimConfig(seed=7, max_events=2000, replicas=2)
        for index in range(2):
            run_replica(self.N5K2, cfg, index)
        assert built == [self.N5K2]
        other = params(4, 2, alpha=(1.0, 2.0), beta=(2.0, 1.0), delta=(0.5, 1.0))
        pooled = run_replicas(other, cfg)
        assert len(pools) == 1 and built == [self.N5K2, other]
        assert pooled == [run_replica(other, cfg, index) for index in range(2)]
        assert built == [self.N5K2, other]

    def test_caller_exception_reaches_the_caller(self, pools):
        # N=30/K=3 has 4**30 states, too many to track: run_replica raises
        # in the caller's own share, and the child is ended with the call.
        cfg = SimConfig(seed=7, max_events=100, replicas=2)
        with pytest.raises(ValueError, match="state occupancy tracking"):
            run_replicas(self.N30K3, cfg, track_state_occupancy=True)
        assert len(pools) == 1
        self.assert_no_child_left()

    @pytest.mark.parametrize("error", [ValueError("replica 1 failed"), NoRebuild("replica 1", "failed")],
                             ids=["picklable", "not-rebuilt"])
    def test_child_exception_reaches_the_caller(self, pools, monkeypatch, error):
        # Only replica 1, which the child runs, raises.  An exception that
        # cannot be rebuilt from its pickle comes back as a RuntimeError
        # carrying its traceback.
        replica = simulate.run_replica

        def failing(model, cfg, index, **kwargs):
            if index == 1:
                raise error
            return replica(model, cfg, index, **kwargs)

        monkeypatch.setattr(simulate, "run_replica", failing)
        cfg = SimConfig(seed=7, max_events=100, replicas=2)
        expected = ValueError if isinstance(error, ValueError) else RuntimeError
        with pytest.raises(expected, match="replica 1"):
            run_replicas(self.N5K2, cfg)
        assert len(pools) == 1
        self.assert_no_child_left()

    def test_child_that_dies_without_a_result(self, pools, monkeypatch):
        replica = simulate.run_replica

        def dying(model, cfg, index, **kwargs):
            if index == 1:
                os._exit(3)
            return replica(model, cfg, index, **kwargs)

        monkeypatch.setattr(simulate, "run_replica", dying)
        cfg = SimConfig(seed=7, max_events=100, replicas=2)
        with pytest.raises(RuntimeError, match="status 3"):
            run_replicas(self.N5K2, cfg)
        assert len(pools) == 1
        self.assert_no_child_left()

    # Explicit ids keep each case's name stable when this table's columns change.
    @pytest.mark.parametrize(
        "replicas, max_events, cpus, workers",
        [
            pytest.param(4, 10**6, 2, 2, id="4-1000000-False-2-2"),
            pytest.param(64, 10**6, 8, 8, id="64-1000000-False-8-8"),
            pytest.param(3, 10**6, 8, 3, id="3-1000000-False-8-3"),
            pytest.param(1, 10**6, 8, 0, id="1-1000000-False-8-0"),
            pytest.param(8, 10**6, 1, 0, id="8-1000000-False-1-0"),
            pytest.param(2, 10, 8, 0, id="2-10-False-8-0"),
        ],
    )
    def test_worker_count_is_capped_at_usable_cpus(self, replicas, max_events, cpus, workers):
        cfg = SimConfig(seed=0, max_events=max_events, replicas=replicas)
        assert simulate._pool_workers(cfg, cpus) == workers


class TestSimStatsEquality:
    @staticmethod
    def changed(value):
        if isinstance(value, np.ndarray):
            value = value.copy()
            value.flat[0] += 1
            return value
        if isinstance(value, list):
            return value[:-1]
        return value + 1

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SimStats)])
    def test_each_field_takes_part(self, name):
        cfg = SimConfig(seed=3, max_events=2000)
        stats = run_replica(params(3, 2), cfg, 0, track_state_occupancy=True)
        twin = run_replica(params(3, 2), cfg, 0, track_state_occupancy=True)
        assert stats == twin
        setattr(twin, name, self.changed(getattr(twin, name)))
        assert stats != twin

    def test_sojourns_take_part_by_value_and_count(self):
        stats = run_replica(params(3, 2), SimConfig(seed=3, max_events=2000), 0)
        assert all(len(times) > 1 for times in stats.completed_sojourns)

        def twin():
            return dataclasses.replace(
                stats, completed_sojourns=[times.copy() for times in stats.completed_sojourns]
            )

        one_value, one_fewer = twin(), twin()
        one_value.completed_sojourns[1][-1] += 1.0
        one_fewer.completed_sojourns[0] = one_fewer.completed_sojourns[0][:-1]
        assert stats == twin()
        assert stats != one_value
        assert stats != one_fewer
        assert one_fewer != stats

    def test_pickle_keeps_float64_sojourn_arrays(self):
        stats = run_replica(params(3, 2), SimConfig(seed=3, max_events=2000), 0)
        twin = pickle.loads(pickle.dumps(stats))
        assert twin == stats
        for times in (*stats.completed_sojourns, *twin.completed_sojourns):
            assert isinstance(times, np.ndarray) and times.dtype == np.float64
