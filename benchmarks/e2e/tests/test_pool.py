import numpy as np
import pytest

from benchmarks.e2e.pool import PooledSimulator, synthesize_pool


class FakeSimulator:
    def __init__(self):
        self.time = 0.0
        self.config = "config"
        self.vibration_calls = 0

    def step(self, dt):
        self.time += dt

    def sample_process(self):
        return {"t": self.time}

    def sample_vibration(self, n_samples=16384):
        self.vibration_calls += 1
        return np.full(n_samples, float(self.vibration_calls))


def test_everything_but_sample_vibration_reaches_the_real_simulator():
    sim = FakeSimulator()
    pooled = PooledSimulator(sim, synthesize_pool(sim, lengths=(8, 4), size=3))
    assert sim.vibration_calls == 6
    pooled.step(5.0)
    assert sim.time == 5.0
    assert pooled.time == 5.0
    assert pooled.sample_process() == {"t": 5.0}
    assert pooled.config == "config"
    blocks = [pooled.sample_vibration(8) for _ in range(4)]
    assert sim.vibration_calls == 6  # served from the pool
    assert [b[0] for b in blocks] == [1.0, 2.0, 3.0, 1.0]
    assert pooled.sample_vibration(4)[0] == 4.0
    assert len(pooled.sample_vibration(4)) == 4


def test_pooled_blocks_are_read_only_and_lengths_are_fixed():
    sim = FakeSimulator()
    pooled = PooledSimulator(sim, synthesize_pool(sim, lengths=(8,), size=1))
    block = pooled.sample_vibration(8)
    with pytest.raises(ValueError):
        block[0] = 0.0
    with pytest.raises(KeyError):
        pooled.sample_vibration(16)


def test_pool_must_not_be_empty():
    with pytest.raises(ValueError):
        PooledSimulator(FakeSimulator(), {8: []})
