"""Exact order statistics over raw samples (no histograms, no interpolation)."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q`` %
    of all samples at or below it.

    Always one of the measured samples, so two series only report the
    same p95 when they share that sample.
    """
    if not values:
        raise ValueError("percentile of an empty series")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile q must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) of a set of run results.

    Uses :func:`statistics.quantiles` (exclusive method) for Q1/Q3 so the
    spread matches how run-to-run stability is judged; a single run has
    no spread.
    """
    if not values:
        raise ValueError("quartiles of an empty series")
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf
