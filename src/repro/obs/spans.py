"""Lightweight trace spans over simulated time.

A :class:`Tracer` is bound to a :class:`repro.common.clock.Clock` (the
event kernel's simulated clock in whole-system runs; any monotonic
``now()`` provider on real hardware) and records nested spans:

::

    with tracer.span("dc.vibration-test", dc="dc:0"):
        with tracer.span("suite.dli"):
            ...

Each finished span keeps its parent id and depth, so the DC dispatch
tree (test → suite → report) is reconstructable from the export.  Span
durations also feed ``trace.<name>.seconds`` histograms in the metrics
registry, giving per-path latency distributions for free.

Under the discrete-event kernel a span's duration is whatever simulated
time elapsed inside it (often zero for pure computation — the kernel
only advances between events); the structural information (nesting,
counts, attributes) is deterministic and the timing becomes meaningful
the moment a real monotonic clock is substituted on embedded hardware.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.common.clock import Clock
from repro.obs.registry import (
    DEFAULT_TIME_EDGES,
    Histogram,
    MetricsRegistry,
    default_registry,
)


@dataclass
class Span:
    """One traced operation (live while open, frozen once closed)."""

    span_id: int
    parent_id: int | None
    name: str
    start: float
    depth: int
    attrs: dict[str, str] = field(default_factory=dict)
    end: float | None = None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end - self.start

    def snapshot(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "depth": self.depth,
            "attrs": dict(sorted(self.attrs.items())),
        }


class Tracer:
    """Produces nested spans; retains a bounded ring of finished ones.

    Parameters
    ----------
    clock:
        Time source for span start/end (never the wall clock).
    metrics:
        Registry receiving ``trace.<name>.seconds`` histograms
        (default: the process-wide registry).
    max_spans:
        Finished-span retention; the oldest are evicted first so a
        months-long unattended run cannot grow memory without bound.
    """

    def __init__(
        self,
        clock: Clock,
        metrics: MetricsRegistry | None = None,
        max_spans: int = 1024,
    ) -> None:
        self.clock = clock
        self._metrics = metrics if metrics is not None else default_registry()
        self.finished: deque[Span] = deque(maxlen=max_spans)
        #: ``trace.<name>.seconds`` per span name, looked up once.
        self._histograms: dict[str, Histogram] = {}
        self._stack: list[Span] = []
        self._next_id = 0
        self.started = 0

    @property
    def active(self) -> Span | None:
        """The innermost open span (None outside any span)."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attrs: str) -> Iterator[Span]:
        """Open a child of the current span for the ``with`` body."""
        self._next_id += 1
        self.started += 1
        parent = self.active
        record = Span(
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            start=self.clock.now(),
            depth=len(self._stack),
            attrs={str(k): str(v) for k, v in attrs.items()},
        )
        self._stack.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self.clock.now()
            self.finished.append(record)
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = self._metrics.histogram(
                    f"trace.{name}.seconds", DEFAULT_TIME_EDGES
                )
            histogram.observe(record.duration)

    def snapshot(self) -> list[dict]:
        """Finished spans, oldest first, JSON-ready and deterministic."""
        return [s.snapshot() for s in self.finished]
