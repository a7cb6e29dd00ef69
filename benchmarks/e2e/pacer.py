"""Open-loop pacing: work is due on a fixed schedule, not when the last item finished.

A slow system therefore shows up as latency measured from each item's
due time (and as generator lateness) instead of as a lighter load.
"""

from __future__ import annotations

import time
from typing import Callable


class OpenLoop:
    """Item ``k`` is due at ``t0 + k * interval`` (``k`` may be fractional).

    ``clock`` and ``sleep`` are injectable so the accounting can be tested
    with a fake clock.
    """

    def __init__(
        self,
        interval: float,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self.clock = clock
        self.sleep = sleep
        self.t0 = 0.0
        #: Largest and summed lateness (start minus due), in seconds.
        self.lag_max = 0.0
        self.lag_total = 0.0

    def start(self) -> float:
        """Fix ``t0`` to now; returns it."""
        self.t0 = self.clock()
        return self.t0

    def due(self, k: float) -> float:
        """Wall time at which item ``k`` is due."""
        return self.t0 + k * self.interval

    def wait(self, k: float) -> float:
        """Sleep until item ``k`` is due and return its due time.

        Records how late the item starts: an item already overdue starts
        at once and its lateness is the stall it inherited.
        """
        due = self.due(k)
        now = self.clock()
        if now < due:
            self.sleep(due - now)
            now = self.clock()
        lag = max(0.0, now - due)
        self.lag_max = max(self.lag_max, lag)
        self.lag_total += lag
        return due

    def since(self, due: float) -> float:
        """Seconds from ``due`` to now: an item's latency measured open loop."""
        return self.clock() - due
