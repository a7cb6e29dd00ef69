"""Knowledge fusion for prognostics (§5.4, §5.6).

"Our approach in phase one has been to combine the lists taking the
most conservative estimate at any given time period, and interpolating
a smooth curve from point to point."

The fused curve is the pointwise *maximum* failure probability over all
input curves (higher probability of failure by a given time = more
conservative), evaluated on the union of all knot times.

Per-input reading, chosen to reproduce the paper's two §5.4 examples:

* A multi-point vector contributes its full linearly-interpolated
  curve, linearly extrapolated past its last knot.
* A single-point report ``(t_s, p_s)`` claims nothing before ``t_s``;
  from ``t_s`` on it contributes a *level shift* of the prevailing
  trend: ``p_s + (P(t) − P(t_s))`` where ``P`` is the envelope of the
  multi-point curves.  A mild report (paper example 1) therefore stays
  strictly under the prevailing curve and is ignored; a pessimistic
  one (example 2) dominates and, riding the prevailing slope, "would
  indicate an even earlier demise" — fused certainty arrives earlier
  than under the original curve alone.

:class:`PrognosticFusion` combines by :func:`conservative_envelope`
alone; :func:`noisy_or_envelope` is a plain function kept for the
ablation bench and its tests.  No fusion state keeps an oracle: the
equivalence tests re-base their own report stream and apply the
envelope to it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.common.errors import FusionError
from repro.common.ids import ObjectId
from repro.protocol.prognostic import PrognosticVector
from repro.protocol.report import FailurePredictionReport


def _union_grid(vectors: Sequence[PrognosticVector]) -> np.ndarray:
    knots = [v.times for v in vectors if len(v)]
    if not knots:
        return np.zeros(0)
    return np.unique(np.concatenate(knots))


def _maximum(a: float, b: float) -> float:
    # np.maximum on values that are never NaN: a tie (0.0 and -0.0)
    # goes to the second operand.
    return a if a > b else b


def _curve_on(grid: list[float], pairs: list[tuple[float, float]]) -> list[float]:
    """A multi-point vector's curve at every grid time, clipped to [0, 1].

    The float form of ``probability_at(grid)``, operation for operation:
    ``np.interp`` over the (0, 0)-anchored knots, the last segment's
    slope past the last knot, then ``np.clip``.
    """
    xs = [float(t) for t, _ in pairs]
    ys = [float(p) for _, p in pairs]
    if xs[0] > 0:
        xs.insert(0, 0.0)
        ys.insert(0, 0.0)
    # Knot times are >= 0, so the anchor puts xs[0] at zero and no grid
    # time lies left of the curve.
    last = len(xs) - 1
    x_end, y_end = xs[last], ys[last]
    tail_slope = (y_end - ys[last - 1]) / (x_end - xs[last - 1])
    out = []
    j = 0
    for x in grid:
        if x > x_end:
            y = y_end + tail_slope * (x - x_end)
        else:
            # np.interp's segment: the last j with xs[j] <= x.  The grid
            # is sorted, so j only moves forward.
            while j < last and xs[j + 1] <= x:
                j += 1
            if j == last or xs[j] == x:
                y = ys[j]
            else:
                # Never NaN: the knot gap is > 0 and x lies inside it,
                # so np.interp's NaN fallback has nothing to catch.
                slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
                y = slope * (x - xs[j]) + ys[j]
        # np.clip: a value equal to a bound (-0.0 at 0.0) is kept.
        if y < 0.0:
            y = 0.0
        elif y > 1.0:
            y = 1.0
        out.append(y)
    return out


def conservative_envelope(vectors: Iterable[PrognosticVector]) -> PrognosticVector:
    """Combine prognostic vectors by the most conservative estimate.

    At every knot time of every input, the fused probability is the
    maximum over all inputs' (interpolated/extrapolated) curves.  The
    result is clipped to [0, 1] and made monotone non-decreasing.

    Runs on plain floats.  Every value is bit for bit what the numpy
    form (``probability_at`` on the ``np.unique`` knot grid, row
    maxima, ``np.clip``, ``np.maximum.accumulate``) computes; the tests
    keep that form as the oracle.  The one freedom is the sign of a
    zero knot time when inputs carry both ``0.0`` and ``-0.0``: numpy's
    sort keeps either, this keeps the first met.

    Examples
    --------
    The paper's first example — a mild second report is ignored:

    >>> from repro.common.units import months
    >>> a = PrognosticVector.from_pairs(
    ...     [(months(3), .01), (months(4), .5), (months(5), .99)])
    >>> b = PrognosticVector.from_pairs([(months(4.5), .12)])
    >>> fused = conservative_envelope([a, b])
    >>> round(fused.probability_at(months(4.5)), 3)  # a's value wins
    0.745
    """
    vecs = [v for v in vectors if len(v)]
    if not vecs:
        return PrognosticVector.empty()
    if len(vecs) == 1:
        return vecs[0]
    curves = [v.to_pairs() for v in vecs]
    grid = sorted({float(t) for pairs in curves for t, _ in pairs})
    n = len(grid)
    prevailing: list[float] | None = None
    singles: list[tuple[float, float]] = []
    for pairs in curves:
        if len(pairs) == 1:
            singles.append(pairs[0])
            continue
        curve = _curve_on(grid, pairs)
        prevailing = curve if prevailing is None else list(map(_maximum, prevailing, curve))
    if prevailing is None:
        fused = [-math.inf] * n
        prevailing = [0.0] * n
    else:
        fused = prevailing[:]
    for t_s, p_s in singles:
        # The report claims nothing before its own horizon; from there
        # on it level-shifts the prevailing curve through its knot.
        p_s = float(p_s)
        k = bisect_left(grid, t_s)
        base = prevailing[k]
        for i in range(k, n):
            y = p_s + (prevailing[i] - base)
            if not fused[i] > y:  # _maximum(fused[i], y), inlined
                fused[i] = y
    out: list[tuple[float, float]] = []
    running = -math.inf
    for t, p in zip(grid, fused):
        # Non-finite to 0, clip to [0, 1], running max.
        if not 0.0 <= p < math.inf:
            p = 0.0
        elif p > 1.0:
            p = 1.0
        if not running > p:  # np.maximum.accumulate's tie rule
            running = p
        out.append((t, running))
        # Collapse any saturated tail to its first point: once the curve
        # hits 1.0 further knots add no information.
        if running >= 1.0:
            break
    return PrognosticVector._trusted(out)


def noisy_or_envelope(vectors: Iterable[PrognosticVector]) -> PrognosticVector:
    """Ablation alternative: treat sources as independent evidence.

    Fused probability is ``1 − Π(1 − p_i)`` — always at least as
    pessimistic as the conservative envelope, and *more* pessimistic
    whenever two sources each carry partial evidence.  Benched against
    the paper's approach in ``benchmarks/bench_prognostic_fusion.py``.
    """
    vecs = [v for v in vectors if len(v)]
    if not vecs:
        return PrognosticVector.empty()
    grid = _union_grid(vecs)
    curves = np.vstack([np.asarray(v.probability_at(grid)) for v in vecs])
    fused = 1.0 - np.prod(1.0 - curves, axis=0)
    fused = np.maximum.accumulate(np.clip(fused, 0.0, 1.0))
    pairs = []
    for t, p in zip(grid.tolist(), fused.tolist()):
        pairs.append((t, p))
        if p >= 1.0:
            break
    return PrognosticVector.from_pairs(pairs)


@dataclass(frozen=True, eq=False)
class FusedPrognosis:
    """Fused prognostic state for one (object, condition) pair as of
    ``as_of``: the combined curve over ``report_count`` reports."""

    sensed_object_id: ObjectId
    machine_condition_id: ObjectId
    vector: PrognosticVector
    as_of: float = 0.0
    report_count: int = 0

    def time_to_failure(self, probability: float = 0.5) -> float:
        """Estimated seconds until failure probability reaches the
        given level (the §3.3 "time to failure" estimate)."""
        return self.vector.time_to_probability(probability)


class PrognosticFusion:
    """Accumulates prognostic reports per (object, condition).

    Every vector is re-based to the current fusion time before
    combination: a report issued at t0 claiming failure within Δ is,
    at time t1 > t0, a claim about Δ − (t1 − t0).

    The conservative envelope is *not* associative (a single-point
    report level-shifts the prevailing multi-point curve), so exact
    incrementality is impossible without retaining reports.  Instead
    :meth:`ingest` only appends to the history and :meth:`fused`
    combines it when asked, memoized per pair until the next ingest
    changes the history or the query time moves.  The equivalence
    tests hold it to the envelope of their own stream, re-based.
    """

    def __init__(self) -> None:
        self._reports: dict[tuple[ObjectId, ObjectId], list[FailurePredictionReport]] = {}
        #: Per-pair memo: (report_count, now) -> fused vector.  Only
        #: the latest entry is kept; fleets re-query the same (count,
        #: now) snapshot many times between ingests.
        self._vector_cache: dict[
            tuple[ObjectId, ObjectId], tuple[tuple[int, float], PrognosticVector]
        ] = {}

    def ingest(self, report: FailurePredictionReport) -> None:
        """Add one prognostic report to its pair's history."""
        if len(report.prognostic) == 0:
            raise FusionError("report carries no prognostic vector")
        key = (report.sensed_object_id, report.machine_condition_id)
        self._reports.setdefault(key, []).append(report)

    def fused(
        self, sensed_object_id: ObjectId, machine_condition_id: ObjectId, now: float
    ) -> tuple[int, PrognosticVector]:
        """``(report_count, fused vector)`` for a pair as of ``now``: the
        numbers :meth:`state` reports, without building its record."""
        key = (sensed_object_id, machine_condition_id)
        reports = self._reports.get(key)
        if not reports:
            return 0, PrognosticVector.empty()
        # A future-stamped report (time-disordered input, §5.1) is
        # treated as effective now rather than rejected.
        if len(reports) == 1:
            # The conservative envelope of one curve is that curve, and
            # one shift costs less than keeping it.
            report = reports[0]
            return 1, report.prognostic.shifted(max(0.0, now - report.timestamp))
        version = (len(reports), now)
        cached = self._vector_cache.get(key)
        if cached is not None and cached[0] == version:
            return version[0], cached[1]
        fused = conservative_envelope(
            r.prognostic.shifted(max(0.0, now - r.timestamp)) for r in reports
        )
        self._vector_cache[key] = (version, fused)
        return version[0], fused

    def state(
        self, sensed_object_id: ObjectId, machine_condition_id: ObjectId, now: float
    ) -> FusedPrognosis:
        """Fused prognosis for an (object, condition) pair as of ``now``."""
        count, fused = self.fused(sensed_object_id, machine_condition_id, now)
        return FusedPrognosis(
            sensed_object_id, machine_condition_id, fused, now, count
        )

    def conditions_for_object(self, sensed_object_id: ObjectId) -> list[ObjectId]:
        """Machine conditions with prognostic evidence on an object."""
        return [c for (obj, c) in self._reports if obj == sensed_object_id]

    def keys(self) -> list[tuple[ObjectId, ObjectId]]:
        """Every (object, condition) pair with history, insertion order."""
        return list(self._reports.keys())

    def reset(self, sensed_object_id: ObjectId, machine_condition_id: ObjectId) -> None:
        """Forget prognostic history for a pair (after maintenance)."""
        self._reports.pop((sensed_object_id, machine_condition_id), None)
        self._vector_cache.pop((sensed_object_id, machine_condition_id), None)
