"""Workload inputs for the sepsim benchmark.

A workload is a fixed list of operations; one round runs each of them once
through ``sepsim.cli.main``.  Every rate and simulation seed comes from the
benchmark seed, so the same seed gives the same inputs, and the program
sees only the generated configs.  The operations kept failing on purpose
(``known_fault``) use inputs that do not depend on the seed, so every
round fails the same share of operations.

Rates are drawn as a base model times a log-uniform factor.  The spread of
each factor is chosen per workload: the cost of a power-iteration solve or
of a kinetic Monte Carlo event depends on the rates, so wide draws would
make the gated wall time follow the seed instead of the program.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import checks

# The README model.
BASE_ALPHA = (1.0, 2.0)
BASE_BETA = (2.0, 1.0)
BASE_DELTA = (1.0, 1.0)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the checker for what it writes.

    ``check(doc, rc)`` gets the parsed ``--output`` document (``None`` when
    the command wrote none) and the exit code, and returns the problems.
    """

    name: str
    command: str
    config: dict
    check: Callable[[dict | None, int], list[str]]
    flags: tuple[str, ...] = ()
    known_fault: str | None = None


def _jitter(rng: random.Random, base, low: float, high: float, scale: float = 1.0) -> list[float]:
    return [scale * b * math.exp(rng.uniform(math.log(low), math.log(high))) for b in base]


def _model(n_sites: int, alpha, beta, delta) -> dict:
    return {
        "n_sites": n_sites,
        "n_types": len(alpha),
        "alpha": list(alpha),
        "beta": list(beta),
        "delta": list(delta),
    }


def _simulate_op(name, command, model, rng, replicas, max_events, gates) -> Op:
    run = {"replicas": replicas, "max_events": max_events}
    config = dict(model, seed=rng.randrange(2**32), warmup_fraction=0.2, **run)
    check = checks.check_report if command == "report" else checks.check_simulate
    return Op(name, command, config, lambda doc, rc: check(doc, rc, model, run, gates))


def _exact_op(name, model, known_fault=None) -> Op:
    return Op(name, "exact", model, lambda doc, rc: checks.check_exact(doc, rc, model),
              known_fault=known_fault)


def _verify_op(name, model, negative_control, known_fault=None) -> Op:
    flags = ("--negative-control",) if negative_control else ()
    return Op(name, "verify", model,
              lambda doc, rc: checks.check_verify(doc, rc, negative_control),
              flags=flags, known_fault=known_fault)


def kmc_small(rng: random.Random) -> list[Op]:
    """README model (N=5, K=2, 243 states), long runs: the record cache is
    full almost at once, so the per-event loop, report's joint occupancy
    and merging do the work."""
    model = _model(5, _jitter(rng, BASE_ALPHA, 0.8, 1.25), _jitter(rng, BASE_BETA, 0.8, 1.25),
                   _jitter(rng, BASE_DELTA, 0.8, 1.25))
    # Over 40 seeds the largest marginal gap was 0.016 and the largest TV
    # distance 0.023; the gates sit about three times above them.
    gates = {"sojourn": True, "marginal_tol": 0.05, "joint_tv": 0.06}
    return [
        _simulate_op("simulate-N5K2", "simulate", model, rng, 4, 200_000, gates),
        _simulate_op("report-N5K2", "report", model, rng, 4, 200_000, gates),
    ]


def kmc_large(rng: random.Random) -> list[Op]:
    """Long lattices whose states are nearly all new: building per-state
    records and the growing cache dominate time and memory.  Sojourns are
    not gated here: the window censors particles still present at its
    end, which biases them low on long lattices."""
    n30 = _model(30, _jitter(rng, (1.0, 2.0, 0.5), 0.9, 1.11), _jitter(rng, (2.0, 1.0, 1.0), 0.9, 1.11),
                 _jitter(rng, (1.0, 1.0, 1.0), 0.9, 1.11))
    n100 = _model(100, _jitter(rng, BASE_ALPHA, 0.9, 1.11), _jitter(rng, BASE_BETA, 0.9, 1.11),
                  _jitter(rng, BASE_DELTA, 0.9, 1.11))
    return [
        _simulate_op("simulate-N30K3", "simulate", n30, rng, 2, 2_500, {}),
        _simulate_op("simulate-N100K2", "simulate", n100, rng, 2, 750, {}),
    ]


def exact_ladder(rng: random.Random) -> list[Op]:
    """Models on both sides of the dense/power cutoff (4096 states), plus
    verify's four power solves at N=8/K=2.

    Power iteration stops on an absolute residual in rate units, so its
    error scales as one over the rates: at the README model's own rates
    the N=8/K=2 site marginals land 3e-10 from the closed form.  Rates
    are therefore the README model times a factor in [40, 80], drawn per
    model, which keeps every seed ten times inside the 1e-10 gate.  Only
    that common factor varies: jittering each rate by 5 % changed the
    number of power iterations in verify from 13 200 to 15 800 over
    seeds 1-10, and the seeds with the fewest gave the lowest wall time
    in both of two ten-run sets.  A common factor leaves the iteration
    count to the stopping tolerance alone: 14 200 to 14 600 over the
    same seeds.
    """

    def model(n_sites, n_types):
        pick = slice(0, n_types)
        scale = math.exp(rng.uniform(math.log(40.0), math.log(80.0)))
        return _model(n_sites, [scale * r for r in BASE_ALPHA[pick]],
                      [scale * r for r in BASE_BETA[pick]],
                      [scale * r for r in BASE_DELTA[pick]])

    return [
        _exact_op("exact-N7K2-dense", model(7, 2)),
        _exact_op("exact-N12K1-dense", model(12, 1)),
        _exact_op("exact-N8K2-power", model(8, 2)),
        _verify_op("verify-N8K2-power", model(8, 2), False),
        _exact_op(
            "stiff-5",
            _model(5, (1e-6, 1e3), (1e3, 1e-3), BASE_DELTA),
            known_fault="dense np.linalg.solve lands 3.3e-10 from the product form",
        ),
        _exact_op(
            "stiff-7",
            _model(7, (1e-4, 30.0), (5.0, 0.1), BASE_DELTA),
            known_fault="dense solve raises 'non-positive probability'",
        ),
    ]


# (n_sites, n_types) of the verify grid: every lattice with 2 or more
# sites and at most 729 states, the limit of the exhaustive cycle search.
GRID_SHAPES = [(n, 1) for n in range(2, 10)] + [(n, 2) for n in range(2, 7)] + [(n, 3) for n in range(2, 5)]


def verify_grid(rng: random.Random) -> list[Op]:
    """verify, clean and as a negative control, over every small lattice
    shape with alpha == beta and alpha != beta.

    Rates are log-uniform in [0.25, 4].  From about [0.2, 5] on, the
    negative control on N=9/K=1 can perturb an edge whose probability
    flux is below detailed balance's absolute 1e-12 tolerance.
    """
    ops = []
    for n_sites, n_types in GRID_SHAPES:
        def rates():
            return [math.exp(rng.uniform(math.log(0.25), math.log(4.0))) for _ in range(n_types)]

        alpha = rates()
        models = {"symmetric": _model(n_sites, alpha, alpha, rates()),
                  "general": _model(n_sites, rates(), rates(), rates())}
        for kind, model in models.items():
            for negative in (False, True):
                label = f"verify-N{n_sites}K{n_types}-{kind}{'-neg' if negative else ''}"
                ops.append(_verify_op(label, model, negative))
    # 1024 states, the fewest of any lattice above the 729-state limit; on
    # N=10/K=1, also 1024 states, the sampled paths do meet the edge.
    # N=7/K=2 (2187 states) shows the fault too, but its dense solves took
    # 1.3 s of a 3-s round and outweighed the reversibility checks.
    ops.append(
        _verify_op(
            "neg-N5K3",
            _model(5, (1.0, 2.0, 0.5), (2.0, 1.0, 1.0), (1.0, 1.0, 1.0)),
            True,
            known_fault="above 729 states the sampled cycle search misses the perturbed edge",
        )
    )
    return ops


WORKLOADS = {
    "kmc-small": kmc_small,
    "kmc-large": kmc_large,
    "exact-ladder": exact_ladder,
    "verify-grid": verify_grid,
}


# The host-speed references (hostspeed.py) that tracked each workload's
# operations best (README: Host noise).  The exact solver's numpy and
# LAPACK time is tracked by the numpy reference alone; the sampler's
# interpreted Python by both together, which are longer and so less
# noisy than the Python reference alone.
REFERENCES = {
    "kmc-small": ("python", "numpy"),
    "kmc-large": ("python", "numpy"),
    "exact-ladder": ("numpy",),
    "verify-grid": ("python", "numpy"),
}


def make_ops(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](random.Random(seed))
