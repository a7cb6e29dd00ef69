"""The DC event scheduler (§5.8).

"The DC software is coordinated by an event scheduler.  It coordinates
standard vibration test[s] ... wavelet and neural network testing and
analysis, and state based feature recognition routines ... the PDME or
any other client can command the scheduler to conduct another test."

Periodic tasks run on the shared discrete-event kernel; on-demand
commands enqueue the same actions immediately.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import SchedulingError
from repro.netsim.kernel import EventKernel
from repro.obs.registry import Counter, Histogram, MetricsRegistry, default_registry

TaskAction = Callable[[float], None]

#: Task failures kept for inspection; older ones are dropped (the
#: ``dc.scheduler.errors`` counter still counts every one).
ERRORS_KEPT = 256


@dataclass
class PeriodicTask:
    """A named repeating activity."""

    name: str
    period: float
    action: TaskAction
    enabled: bool = True
    runs: int = 0
    last_run: float = field(default=float("nan"))

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise SchedulingError(f"task {self.name!r} period must be positive")


class EventScheduler:
    """Periodic + on-demand task coordination on an event kernel."""

    def __init__(
        self,
        kernel: EventKernel,
        metrics: MetricsRegistry | None = None,
        owner: str = "",
        cursor_store: Callable[[str, int, float], None] | None = None,
    ) -> None:
        self.kernel = kernel
        self._tasks: dict[str, PeriodicTask] = {}
        #: Per task: its runs and errors counters and interval histogram.
        self._handles: dict[str, tuple[Counter, Counter, Histogram]] = {}
        #: The newest :data:`ERRORS_KEPT` ``(task name, exception)`` pairs.
        self.errors: deque[tuple[str, Exception]] = deque(maxlen=ERRORS_KEPT)
        self.metrics = metrics if metrics is not None else default_registry()
        self.owner = owner
        #: Optional durable cursor sink ``(name, runs, last_run)`` called
        #: after every successful run — the DC persists these into its
        #: database so a restarted DC knows where its schedules stood.
        self.cursor_store = cursor_store
        self._suspended = False

    def _labels(self, task_name: str) -> dict[str, str]:
        labels = {"task": task_name}
        if self.owner:
            labels["owner"] = self.owner
        return labels

    def add_periodic(self, name: str, period: float, action: TaskAction) -> PeriodicTask:
        """Register a task and schedule its first run one period out."""
        if name in self._tasks:
            raise SchedulingError(f"task {name!r} already scheduled")
        task = PeriodicTask(name, period, action)
        self._tasks[name] = task
        labels = self._labels(name)
        self._handles[name] = (
            self.metrics.counter("dc.scheduler.runs", **labels),
            self.metrics.counter("dc.scheduler.errors", **labels),
            self.metrics.histogram("dc.scheduler.interval_seconds", **labels),
        )
        self.kernel.schedule(period, lambda: self._fire(task))
        return task

    def _fire(self, task: PeriodicTask) -> None:
        if task.name not in self._tasks:
            return  # removed
        if task.enabled and not self._suspended:
            self._run(task)
        self.kernel.schedule(task.period, lambda: self._fire(task))

    def _run(self, task: PeriodicTask) -> None:
        now = self.kernel.now()
        runs, errors, interval = self._handles[task.name]
        try:
            task.action(now)
        except Exception as exc:  # noqa: BLE001 - a bad test must not kill the DC
            self.errors.append((task.name, exc))
            errors.inc()
        else:
            if not math.isnan(task.last_run):
                # Dispatch cadence: the realized interval between runs;
                # drift beyond the nominal period means the DC fell
                # behind its test schedule.
                interval.observe(now - task.last_run)
            task.runs += 1
            task.last_run = now
            runs.inc()
            if self.cursor_store is not None:
                self.cursor_store(task.name, task.runs, task.last_run)

    def command(self, name: str) -> None:
        """Run a task now, out of schedule (the PDME 'conduct another
        test and analysis routine' path)."""
        task = self._tasks.get(name)
        if task is None:
            raise SchedulingError(f"no task {name!r}")
        self.metrics.counter("dc.scheduler.commands", **self._labels(name)).inc()
        self._run(task)

    # -- crash/restart choreography ---------------------------------------
    @property
    def suspended(self) -> bool:
        """Is the whole scheduler held (crashed or clock-held DC)?"""
        return self._suspended

    def suspend(self) -> None:
        """Freeze every task (cadence continues, runs are skipped) — a
        crashed or clock-held DC stops doing work but simulated time
        marches on around it."""
        self._suspended = True

    def resume(self) -> None:
        """Release a suspended scheduler; tasks fire again on their
        existing cadence."""
        self._suspended = False

    def restore_cursors(self, cursors: dict[str, tuple[int, float]]) -> int:
        """Restore persisted ``name -> (runs, last_run)`` progress into
        matching tasks (a restarted DC resuming where it crashed).
        Unknown task names are ignored; returns cursors applied."""
        applied = 0
        for name, (runs, last_run) in cursors.items():
            task = self._tasks.get(name)
            if task is None:
                continue
            task.runs = int(runs)
            task.last_run = float(last_run)
            applied += 1
        return applied

    def enable(self, name: str, enabled: bool = True) -> None:
        """Pause/resume a periodic task (it stays scheduled)."""
        task = self._tasks.get(name)
        if task is None:
            raise SchedulingError(f"no task {name!r}")
        task.enabled = enabled

    def remove(self, name: str) -> None:
        """Unregister a task entirely."""
        self._tasks.pop(name, None)
        self._handles.pop(name, None)

    def task(self, name: str) -> PeriodicTask:
        """Look up a task by name."""
        try:
            return self._tasks[name]
        except KeyError:
            raise SchedulingError(f"no task {name!r}") from None

    def tasks(self) -> list[PeriodicTask]:
        """All registered tasks."""
        return list(self._tasks.values())
