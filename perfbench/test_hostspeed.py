"""Tests of the host-speed calibration, on a fake clock.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """A perf_counter that moves only when a fake reference runs."""

    def __init__(self, reference_times):
        self.now = 0.0
        self.reference_times = iter(reference_times)

    def __call__(self):
        return self.now

    def work(self):
        self.now += next(self.reference_times)


def test_times_are_scaled_by_the_mean_of_the_references_around_them(monkeypatch):
    clock = FakeClock([1.0, 3.0, 2.0])
    monkeypatch.setattr(hostspeed.time, "perf_counter", clock)
    monkeypatch.setitem(hostspeed.REFERENCES, "fake", (clock.work, 0.5))
    speed = hostspeed.Calibrated(("fake",))
    first, second = [], []
    speed.add(first, 4.0)
    speed.add(second, 8.0)
    assert first == [] and second == []  # held until the next mark
    speed.mark()
    # nominal 0.5 over the mean reference (1 + 3) / 2
    assert first == [1.0] and second == [2.0]
    speed.add(first, 10.0)
    speed.mark()
    assert first == [1.0, 2.0]  # 10 * 0.5 / ((3 + 2) / 2)
    assert speed.host_factor() == 4.0  # median reference 2 over nominal 0.5


def test_every_workload_names_known_references():
    assert set(workloads.REFERENCES) == set(workloads.WORKLOADS)
    for kinds in workloads.REFERENCES.values():
        assert kinds and set(kinds) <= set(hostspeed.REFERENCES)
