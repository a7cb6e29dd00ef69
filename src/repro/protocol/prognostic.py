"""Prognostic vectors (§5.4, §7.3).

"Prognostics are defined in this system as time point, probability
pairs, and lists of these pairs."  A pair ``(t, p)`` asserts
probability ``p`` that the machine condition leads to failure within
``t`` seconds from the report's effective time.

A well-formed vector has strictly increasing times and non-decreasing
probabilities in [0, 1] — the probability of having failed *by* a
later time can never be smaller.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import starmap
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.common.errors import ProtocolError


def _check_point(time: float, probability: float) -> None:
    # Chained comparisons are false for NaN, so these also reject
    # every non-finite value.
    if not 0.0 <= time < math.inf:
        raise ProtocolError(f"prognostic time must be finite and >= 0, got {time}")
    if not 0.0 <= probability <= 1.0:
        raise ProtocolError(
            f"prognostic probability must be in [0, 1], got {probability}"
        )


_by_time = operator.itemgetter(0)


def _ordered(pairs: list[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    """Sort checked pairs by time and apply the vector-level rule."""
    if len(pairs) > 1:
        pairs.sort(key=_by_time)
        times = [t for t, _ in pairs]
        probs = [p for _, p in pairs]
        if any(map(operator.ge, times, times[1:])):
            raise ProtocolError(
                "prognostic times must be strictly increasing: "
                f"{np.array(times, dtype=np.float64)}"
            )
        if any(map(operator.gt, probs, probs[1:])):
            raise ProtocolError(
                "failure probabilities must be non-decreasing in time: "
                f"{np.array(probs, dtype=np.float64)}"
            )
    return tuple(pairs)


@dataclass(frozen=True, order=True)
class PrognosticPoint:
    """One (time, probability) pair.

    Attributes
    ----------
    time:
        Horizon in seconds from the report's effective timestamp.
    probability:
        Probability of failure within ``time`` seconds.
    """

    time: float
    probability: float

    def __post_init__(self) -> None:
        _check_point(self.time, self.probability)


class PrognosticVector:
    """An ordered list of :class:`PrognosticPoint`.

    Immutable after construction.  The state is one tuple of ``(time,
    probability)`` pairs, kept as given: the wire decoder, ``shifted``
    and the fusion envelope read and write those pairs directly.
    Iteration and indexing build :class:`PrognosticPoint` objects on
    demand, and the numeric views (the ``times``/``probabilities``
    arrays, interpolation and extrapolation of failure probability at
    arbitrary horizons) build their numpy arrays when called.

    Examples
    --------
    >>> from repro.common.units import months
    >>> v = PrognosticVector.from_pairs(
    ...     [(months(3), 0.01), (months(4), 0.5), (months(5), 0.99)])
    >>> len(v)
    3
    >>> round(v.probability_at(months(4)), 2)
    0.5
    """

    __slots__ = ("_pairs",)

    def __init__(self, points: Iterable[PrognosticPoint]) -> None:
        self._pairs = _ordered([(p.time, p.probability) for p in points])

    @classmethod
    def _trusted(cls, pairs: Iterable[tuple[float, float]]) -> "PrognosticVector":
        """Build from pairs the caller guarantees are already valid:
        strictly increasing times, non-decreasing probabilities."""
        vec = cls.__new__(cls)
        vec._pairs = tuple(pairs)
        return vec

    # -- construction -------------------------------------------------
    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[float, float]]) -> "PrognosticVector":
        """Build from ``(time_seconds, probability)`` tuples.

        Each pair is checked as a :class:`PrognosticPoint` would check
        it, in input order, before the pairs are sorted by time.
        """
        checked = []
        for t, p in pairs:
            _check_point(t, p)
            checked.append((t, p))
        return cls._trusted(_ordered(checked))

    @classmethod
    def empty(cls) -> "PrognosticVector":
        """The zero-length vector ('zero to n ordered pairs', §7.3)."""
        return cls._trusted(())

    # -- container protocol -------------------------------------------
    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[PrognosticPoint]:
        return starmap(PrognosticPoint, self._pairs)

    def __getitem__(
        self, i: int | slice
    ) -> PrognosticPoint | tuple[PrognosticPoint, ...]:
        if isinstance(i, slice):
            return tuple(starmap(PrognosticPoint, self._pairs[i]))
        return PrognosticPoint(*self._pairs[i])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrognosticVector):
            return NotImplemented
        return self._pairs == other._pairs

    def __hash__(self) -> int:
        # A point hashes as its (time, probability) tuple, so this is
        # the hash of the tuple of points.
        return hash(self._pairs)

    # -- numeric views -------------------------------------------------
    @property
    def times(self) -> np.ndarray:
        """Horizon times in seconds (a new read-only array)."""
        v = np.array([t for t, _ in self._pairs], dtype=np.float64)
        v.flags.writeable = False
        return v

    @property
    def probabilities(self) -> np.ndarray:
        """Failure probabilities (a new read-only array)."""
        v = np.array([p for _, p in self._pairs], dtype=np.float64)
        v.flags.writeable = False
        return v

    def _anchored(self) -> tuple[np.ndarray, np.ndarray]:
        """Times and probabilities with the (0, 0) anchor prepended
        unless the vector already starts at t=0."""
        times = self.times
        probs = self.probabilities
        if times[0] > 0:
            times = np.concatenate(([0.0], times))
            probs = np.concatenate(([0.0], probs))
        return times, probs

    def probability_at(self, t: float | np.ndarray) -> float | np.ndarray:
        """Failure probability by horizon ``t``, linearly interpolated.

        Before the first point the curve ramps linearly from (0, 0);
        past the last point it extrapolates along the final segment's
        slope, clipped to 1.0 (and held at the last value for a
        single-point vector).
        """
        t_arr = np.asarray(t, dtype=np.float64)
        if len(self) == 0:
            out = np.zeros_like(t_arr)
            return float(out) if np.isscalar(t) else out

        times, probs = self._anchored()
        out = np.interp(t_arr, times, probs)
        # Linear extrapolation beyond the last knot (single-point
        # vectors hold their value: one observation defines no slope).
        if len(self) >= 2:
            slope = (probs[-1] - probs[-2]) / (times[-1] - times[-2])
            beyond = t_arr > times[-1]
            out = np.where(beyond, probs[-1] + slope * (t_arr - times[-1]), out)
        out = np.clip(out, 0.0, 1.0)
        return float(out) if np.isscalar(t) else out

    def time_to_probability(self, p: float) -> float:
        """Earliest horizon at which failure probability reaches ``p``.

        Used for "time to failure" estimates (§3.3): e.g.
        ``time_to_probability(0.5)`` is the median predicted life.
        Returns ``inf`` if the (extrapolated) curve never reaches ``p``.
        """
        if not 0.0 < p <= 1.0:
            raise ProtocolError(f"probability threshold must be in (0, 1], got {p}")
        if len(self) == 0:
            return float("inf")
        times, probs = self._anchored()
        idx = int(np.searchsorted(probs, p, side="left"))
        if idx < probs.size:
            if idx == 0:
                return float(times[0])
            t0, t1 = times[idx - 1], times[idx]
            p0, p1 = probs[idx - 1], probs[idx]
            if p1 == p0:
                return float(t1)
            return float(t0 + (p - p0) * (t1 - t0) / (p1 - p0))
        # Extrapolate along the final segment.
        if len(self) >= 2:
            slope = (probs[-1] - probs[-2]) / (times[-1] - times[-2])
            if slope > 0:
                return float(times[-1] + (p - probs[-1]) / slope)
        return float("inf")

    def shifted(self, dt: float) -> "PrognosticVector":
        """Re-base the vector by ``dt`` seconds (report-age correction).

        A vector issued ``dt`` seconds ago asserting failure within
        ``t`` is, from *now*, a claim about ``t - dt``; horizons that
        have already elapsed are clamped to a zero-time point.
        """
        if dt == 0 or len(self) == 0:
            return self
        # One pass: the shifted times are already in order, so a clamp
        # or a rounding that makes two equal only ever meets the last
        # kept knot, which keeps its time and takes the running max.
        pairs: list[tuple[float, float]] = []
        running = 0.0
        for time, prob in self._pairs:
            t = time - dt
            if not t > 0.0:
                t = 0.0
            if prob > running:
                running = prob
            if pairs and pairs[-1][0] == t:
                pairs[-1] = (pairs[-1][0], running)
            else:
                pairs.append((t, running))
        return PrognosticVector._trusted(pairs)

    def to_pairs(self) -> list[tuple[float, float]]:
        """Plain ``[(time, probability), ...]`` list (wire form)."""
        return list(self._pairs)

    def __repr__(self) -> str:
        inner = ", ".join(f"({t:.6g}s, {p:.3g})" for t, p in self._pairs)
        return f"PrognosticVector([{inner}])"
