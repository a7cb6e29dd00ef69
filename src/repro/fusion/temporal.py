"""Temporal reasoning over failure histories (§10.1, third extension).

"Third, temporal reasoning components could be implemented to
scrutinize failure histories and provide better projections of future
faults as they develop."

Two temporal signatures matter for developing faults:

* **episodes** — intermittent conditions come and go; the tracker
  segments a belief trajectory into episodes (belief crossing an
  onset/clear hysteresis band);
* **acceleration** — on a degrading machine the episodes recur faster
  and last longer; the recurrence trend projects when the condition
  becomes continuous (effectively: failed).

The output is a standard §7 prognostic vector, so temporal projections
fuse with everything else through the conservative envelope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import FusionError
from repro.protocol.prognostic import PrognosticVector


@dataclass(frozen=True)
class Episode:
    """One contiguous period with the condition active."""

    start: float
    end: float

    @property
    def duration(self) -> float:
        """Episode length in seconds."""
        return self.end - self.start


@dataclass
class EpisodeTracker:
    """Segments a (time, belief) stream into condition episodes.

    Hysteresis: an episode opens when belief rises above ``onset`` and
    closes when it falls below ``clear`` (< onset), so noise riding on
    the threshold does not fragment episodes.
    """

    onset: float = 0.5
    clear: float = 0.3
    _episodes: list[Episode] = field(default_factory=list)
    _open_since: float | None = field(default=None)
    _last_time: float = field(default=float("-inf"))
    # Episode-boundary revision: bumped whenever an episode opens or
    # closes; gates the intervals/acceleration memos so the per-sample
    # observe() stays O(1) and queries amortize to O(1) between
    # boundary events.
    _rev: int = field(default=0)
    _iv_cache: tuple[int, np.ndarray] | None = field(default=None)
    _accel_cache: tuple[int, float] | None = field(default=None)

    def __post_init__(self) -> None:
        if not 0.0 < self.clear < self.onset <= 1.0:
            raise FusionError(
                f"need 0 < clear < onset <= 1, got ({self.clear}, {self.onset})"
            )

    def observe(self, time: float, belief: float) -> None:
        """Feed one belief sample (times must be non-decreasing)."""
        if time < self._last_time:
            raise FusionError(f"time went backwards: {time} < {self._last_time}")
        self._last_time = time
        if self._open_since is None and belief >= self.onset:
            self._open_since = time
            self._rev += 1
        elif self._open_since is not None and belief <= self.clear:
            self._episodes.append(Episode(self._open_since, time))
            self._open_since = None
            self._rev += 1

    @property
    def episodes(self) -> list[Episode]:
        """Closed episodes, oldest first."""
        return list(self._episodes)

    @property
    def active(self) -> bool:
        """Is an episode currently open?"""
        return self._open_since is not None

    def intervals(self) -> np.ndarray:
        """Start-to-start recurrence intervals between episodes."""
        if self._iv_cache is not None and self._iv_cache[0] == self._rev:
            return self._iv_cache[1]
        starts = [e.start for e in self._episodes]
        if self._open_since is not None:
            starts.append(self._open_since)
        iv = np.diff(np.asarray(starts, dtype=np.float64))
        self._iv_cache = (self._rev, iv)
        return iv

    def acceleration(self) -> float:
        """Per-recurrence shrink factor of the intervals.

        Fitted as the geometric mean ratio of successive intervals:
        < 1 means episodes recur ever faster (developing fault);
        1.0 means steady; needs >= 2 intervals, else returns 1.0.
        """
        if self._accel_cache is not None and self._accel_cache[0] == self._rev:
            return self._accel_cache[1]
        iv = self.intervals()
        if iv.size < 2 or np.any(iv <= 0):
            accel = 1.0
        else:
            ratios = iv[1:] / iv[:-1]
            accel = float(np.exp(np.mean(np.log(ratios))))
        self._accel_cache = (self._rev, accel)
        return accel

    def project(self, now: float, min_interval: float = 1.0) -> PrognosticVector:
        """Project the recurrence trend into a prognostic vector.

        Sums the geometric series of shrinking intervals until they
        fall below ``min_interval`` (the condition is then effectively
        continuous = functional failure).  Steady or decelerating
        recurrence yields a far-horizon, low-probability vector.
        """
        iv = self.intervals()
        r = self.acceleration()
        if iv.size < 2 or r >= 0.97:
            return PrognosticVector.from_pairs(
                [(180 * 86400.0, 0.05), (720 * 86400.0, 0.15)]
            )
        last_interval = float(iv[-1])
        t = 0.0
        interval = last_interval * r
        steps = 0
        while interval > min_interval and steps < 10_000:
            t += interval
            interval *= r
            steps += 1
        # Bracket the projected saturation time.
        return PrognosticVector.from_pairs(
            [(max(min_interval, 0.5 * t), 0.2), (max(2 * min_interval, t), 0.6),
             (max(4 * min_interval, 1.8 * t), 0.9)]
        )


@dataclass
class TemporalAnalyzer:
    """Per-(object, condition) episode tracking over fused beliefs.

    The PDME executive feeds :meth:`observe` once per fused diagnostic
    report; query :meth:`projection` for the temporal prognostic of any
    pair.
    """

    onset: float = 0.5
    clear: float = 0.3
    _trackers: dict[tuple[str, str], EpisodeTracker] = field(default_factory=dict)

    def observe(self, obj: str, condition: str, time: float, belief: float) -> None:
        """Record one fused-belief sample."""
        key = (obj, condition)
        tracker = self._trackers.get(key)
        if tracker is None:
            tracker = EpisodeTracker(self.onset, self.clear)
            self._trackers[key] = tracker
        tracker.observe(time, belief)

    def tracker(self, obj: str, condition: str) -> EpisodeTracker:
        """The tracker for a pair (created empty if absent)."""
        return self._trackers.setdefault(
            (obj, condition), EpisodeTracker(self.onset, self.clear)
        )

    def projection(self, obj: str, condition: str, now: float) -> PrognosticVector:
        """Temporal prognostic for a pair."""
        return self.tracker(obj, condition).project(now)

    def accelerating(self, threshold: float = 0.9) -> list[tuple[str, str, float]]:
        """Pairs whose episodes recur faster and faster, worst first."""
        out = []
        for (obj, condition), tracker in self._trackers.items():
            a = tracker.acceleration()
            if a < threshold:
                out.append((obj, condition, a))
        out.sort(key=lambda t: t[2])
        return out
