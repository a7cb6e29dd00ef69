"""A minimal discrete-event simulation kernel.

Time is simulated seconds on a :class:`~repro.common.clock.SimulatedClock`;
events are (time, seq, callback) entries in one binary heap, dispatched
strictly in (time, seq) order.  Everything in the network simulation —
link deliveries, RPC timeouts, DC test schedules — runs on one kernel so
whole-system runs are deterministic.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable

from repro.common.clock import SimulatedClock
from repro.common.errors import SchedulingError
from repro.obs.registry import MetricsRegistry, default_registry

_Entry = tuple[float, int, Callable[[], None]]


class EventKernel:
    """Priority-queue event loop over simulated time.

    Parameters
    ----------
    start:
        Initial simulated time.
    metrics:
        Registry for the ``netsim.kernel.*`` counters; the process
        default when omitted.
    """

    def __init__(
        self,
        start: float = 0.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.clock = SimulatedClock(start)
        self._queue: list[_Entry] = []
        self._seq = 0
        self._cancelled: set[int] = set()
        reg = metrics if metrics is not None else default_registry()
        self._m_scheduled = reg.counter("netsim.kernel.scheduled")
        self._m_executed = reg.counter("netsim.kernel.executed")
        self._m_pending = reg.gauge("netsim.kernel.pending")

    def now(self) -> float:
        """Current simulated time."""
        return self.clock.now()

    def schedule(self, delay: float, callback: Callable[[], None]) -> int:
        """Run ``callback`` ``delay`` seconds from now; returns an id
        usable with :meth:`cancel`."""
        if delay < 0:
            raise SchedulingError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        heappush(self._queue, (self.now() + delay, self._seq, callback))
        self._m_scheduled.inc()
        self._m_pending.set(len(self._queue))
        return self._seq

    def schedule_at(self, t: float, callback: Callable[[], None]) -> int:
        """Run ``callback`` at absolute time ``t`` (>= now)."""
        return self.schedule(t - self.now(), callback)

    def cancel(self, event_id: int) -> None:
        """Cancel a scheduled event (no-op if it already ran)."""
        self._cancelled.add(event_id)

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    def step(self) -> bool:
        """Run the next event; returns False when the queue is empty."""
        queue = self._queue
        while queue:
            t, seq, callback = heappop(queue)
            if seq in self._cancelled:
                self._cancelled.discard(seq)
                continue
            self.clock.advance_to(t)
            self._m_executed.inc()
            self._m_pending.set(len(queue))
            callback()
            return True
        self._m_pending.set(0)
        return False

    def run_until(self, t_end: float) -> int:
        """Run every event scheduled at or before ``t_end``; advances
        the clock to exactly ``t_end``.  Returns events executed."""
        if t_end < self.now():
            raise SchedulingError(f"t_end {t_end} is in the past ({self.now()})")
        executed = 0
        queue = self._queue
        while queue and queue[0][0] <= t_end:
            t, seq, callback = heappop(queue)
            if seq in self._cancelled:
                self._cancelled.discard(seq)
                continue
            self.clock.advance_to(t)
            self._m_executed.inc()
            self._m_pending.set(len(queue))
            callback()
            executed += 1
        self.clock.advance_to(t_end)
        return executed

    def run_budgeted(self, t_end: float, max_events: int) -> tuple[int, bool]:
        """Run events up to ``t_end`` under a hard event budget.

        The deterministic form of a per-stage deadline: a wall-clock
        budget varies with the host, but an *event* budget is a pure
        function of the schedule, so a stalled stage (event storm,
        runaway reschedule loop) is detected identically on every
        machine.  Returns ``(executed, completed)``; when the budget
        runs out the clock stays wherever the last event left it (never
        advanced to ``t_end``) so the caller can grant another budget
        slice and resume exactly where it stopped.
        """
        if t_end < self.now():
            raise SchedulingError(f"t_end {t_end} is in the past ({self.now()})")
        if max_events < 1:
            raise SchedulingError(f"run_budgeted needs max_events >= 1, got {max_events}")
        executed = 0
        queue = self._queue
        while executed < max_events and queue and queue[0][0] <= t_end:
            t, seq, callback = heappop(queue)
            if seq in self._cancelled:
                self._cancelled.discard(seq)
                continue
            self.clock.advance_to(t)
            self._m_executed.inc()
            self._m_pending.set(len(queue))
            callback()
            executed += 1
        completed = not queue or queue[0][0] > t_end
        if completed:
            self.clock.advance_to(t_end)
        return executed, completed

    def run(self, max_events: int = 1_000_000) -> int:
        """Drain the queue entirely (bounded); returns events executed."""
        executed = 0
        while self.step():
            executed += 1
            if executed >= max_events:
                raise SchedulingError(f"kernel exceeded {max_events} events — runaway schedule?")
        return executed
