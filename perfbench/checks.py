"""Independent closed forms and output checkers for the sepsim benchmark.

Nothing here imports sepsim: the closed forms are worked out again from the
model definition, so a checker can catch the program's closed-form code
being wrong as well as its solver or sampler.  Each checker takes the JSON
document a CLI command wrote (or ``None`` when it wrote none) and the exit
code, and returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Absolute gate between a solved distribution and the product form, the
# same 1e-10 the program's own oracle check uses.
EXACT_TOL = 1e-10
# Statistical gates.  Flux standard errors are Poisson-count errors and run
# about 10 % wide of calibrated; 5 SE leaves room for that and for the
# start-up transient of short runs.
Z_GATE = 5.0
# Identities that hold exactly up to rounding of one float division.
ROUNDING_TOL = 1e-9

NEGATIVE_CONTROL_CHECKS = ("detailed_balance", "reversed_rates_general", "kolmogorov_cycles")


def ratios(model: dict) -> np.ndarray:
    return np.asarray(model["alpha"], dtype=float) / np.asarray(model["beta"], dtype=float)


def site_marginal(model: dict) -> np.ndarray:
    """Stationary law of one site: entry 0 vacancy, entry k type k."""
    r = ratios(model)
    return np.concatenate(([1.0], r)) / (1.0 + r.sum())


def product_form(model: dict) -> np.ndarray:
    """Joint stationary law, site 1 the most significant digit."""
    marginal = site_marginal(model)
    joint = np.ones(())
    for _ in range(model["n_sites"]):
        joint = np.multiply.outer(joint, marginal)
    return joint.ravel()


def state_strings(model: dict) -> list[str]:
    """State labels in canonical order, as the CLI prints them."""
    values = range(model["n_types"] + 1)
    return [",".join(map(str, s)) for s in itertools.product(values, repeat=model["n_sites"])]


def flux(model: dict) -> np.ndarray:
    """Per-type arrival flux 2 alpha_k / (1 + sum alpha/beta)."""
    return 2.0 * np.asarray(model["alpha"], dtype=float) / (1.0 + ratios(model).sum())


def sojourn(model: dict) -> np.ndarray:
    """Per-type mean sojourn time N / (2 beta_k)."""
    return model["n_sites"] / (2.0 * np.asarray(model["beta"], dtype=float))


def _max_abs(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return math.inf
    return float(np.abs(a - b).max()) if a.size else 0.0


def check_exact_section(section: dict, model: dict) -> list[str]:
    """The exact part of an ``exact`` or ``report`` document."""
    problems = []
    dist = section["distribution"]
    if dist["state"] != state_strings(model):
        problems.append("state labels are not in canonical order")
    dev = _max_abs(dist["p_solved"], product_form(model))
    if not dev <= EXACT_TOL:
        problems.append(f"p_solved is {dev:.3e} from the product form")
    marginals = np.tile(site_marginal(model), (model["n_sites"], 1))
    dev = _max_abs(section["site_marginals"]["from_solved"], marginals)
    if not dev <= EXACT_TOL:
        problems.append(f"solved site marginals are {dev:.3e} from the closed form")
    return problems


def check_exact(doc: dict | None, rc: int, model: dict) -> list[str]:
    if rc != 0 or doc is None:
        return [f"exact exited {rc}"]
    return check_exact_section(doc, model)


def check_simulation_section(section: dict, model: dict, run: dict, gates: dict) -> list[str]:
    """The simulation part of a ``simulate`` or ``report`` document.

    ``run`` holds the configured ``replicas`` and ``max_events``.  ``gates``
    may hold ``marginal_tol`` (largest allowed gap between empirical and
    closed-form site marginals) and ``sojourn`` (gate sojourn z too).
    """
    problems = []
    n_types = model["n_types"]
    if section["event_count"] != run["replicas"] * run["max_events"]:
        problems.append(f"event count {section['event_count']} != replicas x max_events")
    counts = section["counts"]
    for k0 in range(n_types):
        gained = counts["arrivals_by_type"][k0] - counts["departures_by_type"][k0]
        present = counts["end_counts_by_type"][k0] - counts["start_counts_by_type"][k0]
        if gained != present:
            problems.append(f"type {k0 + 1} is not conserved: {gained} gained, {present} present")

    total_time = section["total_time"]
    if not (total_time and total_time > 0.0):
        return problems + [f"measurement window {total_time!r} is not positive"]
    arrivals = np.asarray(counts["arrivals_by_type"], dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (arrivals / total_time - flux(model)) / (np.sqrt(arrivals) / total_time)
    if not np.all(np.abs(z) <= Z_GATE):
        problems.append(f"flux z {np.round(z, 2).tolist()} outside +-{Z_GATE}")
    if gates.get("sojourn"):
        s = section["sojourn"]
        mean = np.asarray(s["empirical_mean"], dtype=float)
        stderr = np.asarray(s["stderr"], dtype=float)
        z = (mean - sojourn(model)) / stderr
        if not np.all(np.abs(z) <= Z_GATE):
            problems.append(f"sojourn z {np.round(z, 2).tolist()} outside +-{Z_GATE}")

    empirical = np.asarray(section["marginals"]["empirical"], dtype=float)
    if empirical.shape != (model["n_sites"], n_types + 1):
        return problems + [f"empirical marginals have shape {empirical.shape}"]
    row_dev = float(np.abs(empirical.sum(axis=1) - 1.0).max())
    if not row_dev <= ROUNDING_TOL:
        problems.append(f"occupancy rows miss total_time by {row_dev:.3e} of it")
    if "marginal_tol" in gates:
        dev = _max_abs(empirical, np.tile(site_marginal(model), (model["n_sites"], 1)))
        if not dev <= gates["marginal_tol"]:
            problems.append(f"empirical site marginals are {dev:.4f} from the closed form")
    return problems


def check_simulate(doc: dict | None, rc: int, model: dict, run: dict, gates: dict) -> list[str]:
    if rc != 0 or doc is None:
        return [f"simulate exited {rc}"]
    return check_simulation_section(doc, model, run, gates)


def check_report(doc: dict | None, rc: int, model: dict, run: dict, gates: dict) -> list[str]:
    """``gates`` as for the simulation section, plus ``joint_tv`` (largest
    allowed total-variation distance between the empirical joint law and
    the product form)."""
    if rc != 0 or doc is None:
        return [f"report exited {rc}"]
    problems = check_exact_section(doc["exact"], model)
    problems += check_simulation_section(doc["simulation"], model, run, gates)
    tv = doc["comparison"]["joint_tv_distance"]
    if tv is None or not 0.0 <= tv <= gates["joint_tv"]:
        problems.append(f"joint TV distance {tv!r} outside [0, {gates['joint_tv']}]")
    return problems


def check_verify(doc: dict | None, rc: int, negative_control: bool) -> list[str]:
    """A clean model passes every check; a negative control exits 1 and
    fails each generator-based check."""
    if doc is None:
        return [f"verify exited {rc} without a report"]
    status = {c["name"]: c["status"] for c in doc["checks"]}
    if not negative_control:
        failed = sorted(name for name, s in status.items() if s == "fail")
        problems = [f"check {name} failed" for name in failed]
        if rc != 0 or not doc["passed"]:
            problems.append(f"verify exited {rc}, passed={doc['passed']}")
        return problems
    problems = [
        f"negative control: {name} did not fail"
        for name in NEGATIVE_CONTROL_CHECKS
        if status.get(name) != "fail"
    ]
    if rc != 1 or doc["passed"]:
        problems.append(f"negative control: verify exited {rc}, passed={doc['passed']}")
    return problems
