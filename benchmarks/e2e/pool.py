"""Pre-synthesized vibration blocks served in place of live synthesis.

The plant simulator is the test-input generator, not the system under
test, and synthesizing a 32768-sample block costs about as much as
analysing it.  :class:`PooledSimulator` stands in for
``MonitoredMachine.simulator`` and replays blocks drawn once from the
real simulator; process samples, ``step`` and kinematics still go to
the real one.
"""

from __future__ import annotations

from typing import Any

import numpy as np

#: Blocks kept per machine per block length.
POOL_SIZE = 16
#: Block lengths the DC reads: vibration tests and the RMS alarm scan.
BLOCK_LENGTHS = (32768, 256)


def synthesize_pool(
    simulator: Any, lengths: tuple[int, ...] = BLOCK_LENGTHS, size: int = POOL_SIZE
) -> dict[int, list[np.ndarray]]:
    """Draw ``size`` read-only blocks per length from the real simulator."""
    pool: dict[int, list[np.ndarray]] = {}
    for n in lengths:
        blocks = []
        for _ in range(size):
            block = np.asarray(simulator.sample_vibration(n), dtype=np.float64)
            block.setflags(write=False)
            blocks.append(block)
        pool[n] = blocks
    return pool


class PooledSimulator:
    """Delegates everything to ``simulator`` except ``sample_vibration``,
    which cycles through the pooled blocks of the requested length."""

    def __init__(self, simulator: Any, pool: dict[int, list[np.ndarray]]) -> None:
        if not pool or any(not blocks for blocks in pool.values()):
            raise ValueError("pool needs at least one block per length")
        self._simulator = simulator
        self._pool = pool
        self._next = dict.fromkeys(pool, 0)

    def sample_vibration(self, n_samples: int = 16384) -> np.ndarray:
        blocks = self._pool.get(n_samples)
        if blocks is None:
            raise KeyError(f"no pooled blocks of length {n_samples}")
        i = self._next[n_samples]
        self._next[n_samples] = (i + 1) % len(blocks)
        return blocks[i]

    def __getattr__(self, name: str) -> Any:
        return getattr(self._simulator, name)
