"""Host speed: fixed pieces of reference work, timed between operations.

The benchmark runs on shared hosts whose speed drifts by tens of percent,
in bursts within a run and in spells longer than one (README: Host
noise).  The drift is in the CPU work itself: an operation's CPU time
drifts with its wall time, and no statistic over one run removes a spell
that outlasts the run.  What does remove it is a reference: the same work,
timed just before and just after the operations it brackets, slows with
them.  ``Calibrated`` divides each operation's time by the mean of the two
reference times around it and multiplies by the reference's nominal time.
That gives the operation's time on a host on which the reference takes
its nominal time.  A change in sepsim moves the operations but not the
reference, so it shows in full.

Different work slows differently, so there are two references and each
workload names those that track its operations best
(``workloads.REFERENCES``):

- ``python``: interpreted Python (dict updates, ``random``, ``math``), like
  the sampler's event loop.
- ``numpy``: small dense LAPACK solves, one larger one, elementwise passes
  over a vector and a sparse matrix-vector product, like the exact solver.

Neither imports sepsim.  The README (Host noise) gives the measurements
behind the choice.

Set-up is a fresh process that mostly starts the interpreter and loads
numpy and scipy, which the in-process references do not track (their
times correlated at 0.10 over 30 probes).  Its reference is a fresh
process that imports what sepsim imports from numpy and scipy and nothing
else (``SETUP_REF_ARGV``); over 40 probes the two correlated at 0.67.
"""

from __future__ import annotations

import functools
import math
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy.sparse

# A reference is taken before an operation that starts this long after
# the last one, and at the end of every round.
REF_EVERY_S = 0.25
# Nominal time of one set-up reference process, close to its median on
# the 2-core host of the README's figures.
SETUP_REF_S = 0.27
SETUP_REF_ARGV = ("-c", "import numpy, scipy.sparse, scipy.sparse.csgraph; print('ready', flush=True)")


@functools.cache
def _numpy_inputs():
    """The numpy reference's inputs, made on first use so that a workload
    that does not use it does not carry them in its peak memory."""
    small = np.random.default_rng(1).random((192, 192)) + 192.0 * np.eye(192)
    large = np.random.default_rng(3).random((640, 640)) + 640.0 * np.eye(640)
    vector = np.random.default_rng(2).random(200_000)
    # From random coordinates: scipy.sparse.random draws them from all
    # n * n positions, which takes gigabytes at this size.
    rng = np.random.default_rng(4)
    n, nnz = 20_000, 200_000
    rows, cols = rng.integers(0, n, size=(2, nnz))
    sparse = scipy.sparse.coo_matrix((rng.random(nnz), (rows, cols)), shape=(n, n)).tocsr()
    return small, large, vector, sparse


def python_work() -> float:
    rng = random.Random(12345)
    counts: dict[int, int] = {}
    total = 0.0
    for i in range(40_000):
        key = (i * 2654435761) & 4095
        counts[key] = counts.get(key, 0) + 1
        total += math.log(rng.random() + 1e-12)
    return total


def numpy_work() -> float:
    small, large, vector, sparse = _numpy_inputs()
    x = np.ones(192)
    for _ in range(5):
        x = np.linalg.solve(small, x)
    y = np.linalg.solve(large, np.ones(640))
    v = vector
    for _ in range(16):
        v = v * 0.999 + 0.001
    p = np.ones(20_000)
    for _ in range(40):
        p = sparse @ p
        p /= p.sum()
    return float(x.sum() + y.sum() + v.sum() + p.sum())


# name: (work, nominal seconds).  The nominal time only sets the scale of
# the calibrated times; it is close to the reference's median on the
# 2-core host of the README's figures.
REFERENCES = {
    "python": (python_work, 0.0145),
    "numpy": (numpy_work, 0.0273),
}


def time_until_ready(argv, cwd: Path) -> float:
    """Seconds from launching ``argv`` until it prints ``ready``; waits for
    the process to end and raises ``RuntimeError`` if it fails."""
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE, text=True) as process:
        ready = process.stdout.readline().strip() == "ready"
        elapsed = time.perf_counter() - start
        process.stdout.read()
    if not ready or process.returncode != 0:
        raise RuntimeError(f"{argv[1:3]} exited {process.returncode} before it was ready")
    return elapsed


def calibrated_setup(argv, cwd: Path) -> float:
    """Set-up time of ``argv`` on a host on which the set-up reference
    takes ``SETUP_REF_S``: the reference runs just before and just after."""
    ref_argv = [sys.executable, *SETUP_REF_ARGV]
    before = time_until_ready(ref_argv, cwd)
    elapsed = time_until_ready(argv, cwd)
    after = time_until_ready(ref_argv, cwd)
    return elapsed * SETUP_REF_S / ((before + after) / 2.0)


class Calibrated:
    """Collects raw times and turns them into calibrated ones.

    ``add(sink, seconds)`` holds a raw time until the next ``mark()``,
    which times the references named in ``kinds`` and appends ``seconds *
    nominal / mean(reference before, reference after)`` to ``sink``, where
    a reference's time and its nominal are summed over ``kinds``.  Keep
    every ``add`` between two marks: the first mark is taken on
    construction."""

    def __init__(self, kinds: tuple[str, ...]) -> None:
        self.work = [REFERENCES[kind][0] for kind in kinds]
        self.nominal = sum(REFERENCES[kind][1] for kind in kinds)
        self.refs: list[float] = []
        self.pending: list[tuple[list[float], float]] = []
        self.marked_at = 0.0
        self.mark()

    def mark(self) -> None:
        start = time.perf_counter()
        for work in self.work:
            work()
        ref = time.perf_counter() - start
        if self.pending:
            factor = self.nominal / ((self.refs[-1] + ref) / 2.0)
            for sink, seconds in self.pending:
                sink.append(seconds * factor)
            self.pending.clear()
        self.refs.append(ref)
        self.marked_at = time.perf_counter()

    def mark_if_due(self) -> None:
        if time.perf_counter() - self.marked_at >= REF_EVERY_S:
            self.mark()

    def add(self, sink: list[float], seconds: float) -> None:
        self.pending.append((sink, seconds))

    def host_factor(self) -> float:
        """Median reference time over its nominal: above 1 on a host
        slower than the nominal one."""
        return statistics.median(self.refs) / self.nominal
