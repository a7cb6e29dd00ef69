"""In-memory spans recorded around public calls at each layer boundary.

The benchmark never edits the program: :meth:`Tracer.wrap` returns a
timing wrapper that the workload installs as an instance attribute
(where the caller looks the method up at call time) or as a module
attribute (where the caller goes through module globals).  A wrapper is
free while the tracer is inactive, so set-up and the post-run checks
record nothing.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple


class Span(NamedTuple):
    """One timed call.  ``parent_id`` is 0 for a span with no parent."""

    name: str
    span_id: int
    parent_id: int
    trace_id: int
    start: float
    end: float


class Tracer:
    """Collects spans from any thread; nesting is tracked per thread.

    A span opened with ``root=True`` (or with no enclosing span) starts a
    new trace id, so one scan, batch, query or report is one trace even
    when it runs inside a longer harness span.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.active = False
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, root: bool = False) -> Callable:
        """``fn`` timed as a span called ``name`` whenever the tracer is active."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent_id, parent_trace = stack[-1] if stack else (0, 0)
            span_id = next(self._ids)
            trace_id = span_id if root or not parent_id else parent_trace
            stack.append((span_id, trace_id))
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
                self.spans.append(Span(name, span_id, parent_id, trace_id, start, end))

        return traced

    def patch(self, owner: Any, attr: str, name: str, root: bool = False) -> None:
        """Replace ``owner.attr`` with its traced wrapper."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), root))

    def dump(self, path: Path) -> None:
        """Write every span as ``{"fields": [...], "spans": [[...], ...]}``."""
        doc = {"fields": list(Span._fields), "spans": [list(s) for s in self.spans]}
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the part of that interval
    covered by its child spans (children are merged first, so overlapping
    children are not subtracted twice).
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent_id:
            children[s.parent_id].append((s.start, s.end))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(s.span_id, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.name] += (s.end - s.start) - covered
    return dict(out)


def call_counts(spans: Iterable[Span]) -> dict[str, int]:
    """Number of spans per name."""
    out: dict[str, int] = defaultdict(int)
    for s in spans:
        out[s.name] += 1
    return dict(out)
