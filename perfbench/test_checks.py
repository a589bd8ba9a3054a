"""Tests of the benchmark's own closed forms and checkers.

    python3 -m pytest perfbench

The closed forms are compared with values worked out by hand for N=2,
K=1, alpha=1, beta=2: the ratio is r = 1/2, the normaliser
(1 + r)^-2 = 4/9, so the states 00, 01, 10, 11 have probabilities
4/9, 2/9, 2/9, 1/9; a site is vacant with probability 2/3; the flux is
2 * 1 / (3/2) = 4/3 and the mean sojourn 2 / (2 * 2) = 1/2.
"""

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import workloads  # noqa: E402

N2K1 = {"n_sites": 2, "n_types": 1, "alpha": [1.0], "beta": [2.0], "delta": [1.0]}


def test_product_form_by_hand():
    assert checks.product_form(N2K1) == pytest.approx([4 / 9, 2 / 9, 2 / 9, 1 / 9], abs=1e-15)
    assert checks.state_strings(N2K1) == ["0,0", "0,1", "1,0", "1,1"]


def test_site_marginal_flux_sojourn_by_hand():
    assert checks.site_marginal(N2K1) == pytest.approx([2 / 3, 1 / 3], abs=1e-15)
    assert checks.flux(N2K1) == pytest.approx([4 / 3], abs=1e-15)
    assert checks.sojourn(N2K1) == pytest.approx([0.5], abs=1e-15)


def test_product_form_orders_site_one_first():
    model = {"n_sites": 3, "n_types": 2, "alpha": [1.0, 3.0], "beta": [2.0, 1.0], "delta": [1, 1]}
    p = checks.product_form(model)
    m = checks.site_marginal(model)
    labels = checks.state_strings(model)
    assert p.sum() == pytest.approx(1.0, abs=1e-15)
    assert p[labels.index("2,0,1")] == pytest.approx(m[2] * m[0] * m[1], rel=1e-15)


def exact_doc(model):
    """An exact document as the CLI writes it, built from the closed form."""
    p = checks.product_form(model)
    marginal = checks.site_marginal(model)
    return {
        "command": "exact",
        "distribution": {"state": checks.state_strings(model), "p_solved": p.tolist()},
        "site_marginals": {"from_solved": np.tile(marginal, (model["n_sites"], 1)).tolist()},
    }


def test_exact_checker_accepts_the_product_form():
    assert checks.check_exact(exact_doc(N2K1), 0, N2K1) == []


def test_exact_checker_rejects_a_perturbed_p_solved():
    doc = exact_doc(N2K1)
    doc["distribution"]["p_solved"][3] += 5e-10
    assert any("p_solved" in p for p in checks.check_exact(doc, 0, N2K1))


def test_exact_checker_rejects_a_failed_exit():
    assert checks.check_exact(None, 2, N2K1) == ["exact exited 2"]


def simulate_doc(model, arrivals, total_time=1000.0):
    marginal = checks.site_marginal(model)
    return {
        "event_count": 20,
        "total_time": total_time,
        "counts": {
            "arrivals_by_type": [arrivals],
            "departures_by_type": [arrivals - 1],
            "start_counts_by_type": [0],
            "end_counts_by_type": [1],
        },
        "sojourn": {"empirical_mean": [0.5], "stderr": [0.01]},
        "marginals": {"empirical": np.tile(marginal, (model["n_sites"], 1)).tolist()},
    }


RUN = {"replicas": 2, "max_events": 10}


def test_simulate_checker_accepts_the_expected_flux():
    expected = round(checks.flux(N2K1)[0] * 1000.0)
    doc = simulate_doc(N2K1, expected)
    assert checks.check_simulate(doc, 0, N2K1, RUN, {"sojourn": True, "marginal_tol": 0.01}) == []


def test_simulate_checker_rejects_a_flux_ten_se_off():
    rate = checks.flux(N2K1)[0]
    # Arrivals whose flux sits 10 standard errors above the closed form.
    t = 1000.0
    arrivals = round(rate * t + 10.0 * math.sqrt(rate * t))
    problems = checks.check_simulate(simulate_doc(N2K1, arrivals, t), 0, N2K1, RUN, {})
    assert any("flux z" in p for p in problems)


def test_simulate_checker_rejects_broken_conservation_and_event_count():
    doc = simulate_doc(N2K1, 1333)
    doc["counts"]["departures_by_type"] = [1000]
    doc["event_count"] = 21
    problems = checks.check_simulate(doc, 0, N2K1, RUN, {})
    assert any("conserved" in p for p in problems)
    assert any("event count" in p for p in problems)


def verify_doc(rc, statuses):
    return {"passed": rc == 0, "checks": [{"name": n, "status": s} for n, s in statuses.items()]}


def test_verify_checker_accepts_a_clean_pass_and_a_full_negative_control():
    clean = verify_doc(0, {"detailed_balance": "pass", "uniformity": "skipped"})
    assert checks.check_verify(clean, 0, negative_control=False) == []
    negative = verify_doc(1, {name: "fail" for name in checks.NEGATIVE_CONTROL_CHECKS})
    assert checks.check_verify(negative, 1, negative_control=True) == []


def test_verify_checker_rejects_a_negative_control_whose_cycle_check_passes():
    statuses = {name: "fail" for name in checks.NEGATIVE_CONTROL_CHECKS}
    statuses["kolmogorov_cycles"] = "pass"
    problems = checks.check_verify(verify_doc(1, statuses), 1, negative_control=True)
    assert problems == ["negative control: kolmogorov_cycles did not fail"]


def test_known_faults_use_inputs_that_do_not_depend_on_the_seed():
    for name in workloads.WORKLOADS:
        first = {op.name: op for op in workloads.make_ops(name, 1)}
        second = {op.name: op for op in workloads.make_ops(name, 2)}
        assert list(first) == list(second)
        for op_name, op in first.items():
            if op.known_fault:
                assert op.config == second[op_name].config
    faults = sorted(op.name for name in workloads.WORKLOADS
                    for op in workloads.make_ops(name, 3) if op.known_fault)
    assert faults == ["neg-N5K3", "stiff-5", "stiff-7"]


def test_same_seed_gives_same_inputs():
    for name in workloads.WORKLOADS:
        a = [copy.deepcopy(op.config) for op in workloads.make_ops(name, 7)]
        b = [op.config for op in workloads.make_ops(name, 7)]
        assert a == b


def test_benchmark_json_names_every_workload():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
