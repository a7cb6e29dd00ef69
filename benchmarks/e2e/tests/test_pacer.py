import pytest

from benchmarks.e2e.pacer import OpenLoop


class FakeTime:
    """A clock that only moves when someone sleeps or does work."""

    def __init__(self):
        self.now = 100.0

    def clock(self):
        return self.now

    def sleep(self, seconds):
        assert seconds > 0
        self.now += seconds


def test_items_wait_for_their_due_time():
    t = FakeTime()
    loop = OpenLoop(0.5, clock=t.clock, sleep=t.sleep)
    assert loop.start() == 100.0
    assert loop.wait(0) == 100.0
    assert loop.wait(3) == 101.5
    assert t.now == 101.5
    assert loop.lag_max == 0.0


def test_a_stall_is_charged_to_every_item_it_delays():
    t = FakeTime()
    loop = OpenLoop(1.0, clock=t.clock, sleep=t.sleep)
    loop.start()
    latencies = []
    for k, work in enumerate([0.2, 3.5, 0.2, 0.2, 0.2, 0.2]):
        due = loop.wait(k)
        t.now += work  # the system under test runs
        latencies.append(loop.since(due))
    # Item 1 stalls 3.5 s; items 2 and 3 were due during the stall and
    # start late, so their latency (from due time) includes the wait.
    assert latencies == pytest.approx([0.2, 3.5, 2.7, 1.9, 1.1, 0.3])
    assert loop.lag_max == pytest.approx(2.5)
    assert loop.lag_total == pytest.approx(2.5 + 1.7 + 0.9 + 0.1)


def test_fractional_due_times_for_report_timestamps():
    t = FakeTime()
    loop = OpenLoop(1.0 / 500.0, clock=t.clock, sleep=t.sleep)
    loop.start()
    # A report stamped 30 sim-s into the window was due 60 ms after t0.
    assert loop.due(30.0) == pytest.approx(100.06)


def test_interval_must_be_positive():
    with pytest.raises(ValueError):
        OpenLoop(0.0)
