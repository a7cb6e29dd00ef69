"""Helpers shared by the workloads: the wall clock, metric records, inputs."""

from __future__ import annotations

import hashlib
import time
from typing import Any, Iterator, Sequence

from benchmarks.e2e.stats import percentile

#: Knowledge sources that synthetic reports claim to come from.
SOURCES = ("ks:dli", "ks:fuzzy", "ks:sbfr")
#: Uplink-style DC names used in synthetic report ids (``<dc>#<seq>``).
SYNTHETIC_DCS = 8


def wall() -> float:
    """Monotonic wall-clock seconds; the benchmark's only clock read."""
    return time.perf_counter()  # mpros: allow[lint.wall-clock]


def metric(value: float, unit: str, n: int = 1) -> dict[str, Any]:
    """One measured value with its unit and the number of samples behind it."""
    return {"value": float(value), "unit": unit, "n": int(n)}


#: Latency quantiles every series reports.  p1 and p90 are the gated
#: pair (see ``metrics.E2E``): on a shared host where each operation runs
#: between 1x and about 1.8x its uncontended time, they fall among the
#: fastest and the slowest operations of every run, while p50 moves with
#: the share that ran slow and p95 with the queueing that share causes.
LATENCY_QUANTILES = (1, 50, 90, 95)


def latency_metrics(
    prefix: str, samples_s: Sequence[float], quantiles: Sequence[int] = LATENCY_QUANTILES
) -> dict[str, dict[str, Any]]:
    """``<prefix>_p<q>_ms``: exact order statistics over all the samples."""
    if not samples_s:
        raise ValueError(f"no {prefix} latency samples")
    ms = [s * 1000.0 for s in samples_s]
    return {f"{prefix}_p{q}_ms": metric(percentile(ms, q), "ms", len(ms)) for q in quantiles}


def rate_metric(counts: Sequence[float], seconds: Sequence[float], unit: str) -> dict[str, Any]:
    """Work per second: summed ``counts`` over summed ``seconds``, both
    given per operation."""
    return metric(sum(counts) / sum(seconds), unit, len(counts))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def synthetic_reports(
    rng: Any, n: int, n_objects: int, t0: float = 1000.0, dt: float = 0.25
) -> Iterator[tuple[str, Any]]:
    """``n`` (report_id, report) pairs over ``n_objects`` objects and every
    chiller condition, with strictly increasing timestamps."""
    from repro.pdme.shard import registry_for_plant
    from repro.protocol.prognostic import PrognosticPoint, PrognosticVector
    from repro.protocol.report import FailurePredictionReport

    conditions = sorted(
        c for group in registry_for_plant("chiller").groups() for c in group.conditions
    )
    objects = rng.integers(0, n_objects, size=n)
    conds = rng.integers(0, len(conditions), size=n)
    sources = rng.integers(0, len(SOURCES), size=n)
    severity = rng.uniform(0.2, 0.9, size=n)
    belief = rng.uniform(0.1, 0.9, size=n)
    base = rng.uniform(0.02, 0.3, size=n)
    rise = rng.uniform(0.0, 0.3, size=(n, 2))
    horizon = rng.uniform(0.0, 1.0, size=n)
    for i in range(n):
        h = 3600.0 * float(horizon[i])
        p0 = float(base[i])
        p1 = p0 + float(rise[i, 0])
        p2 = p1 + float(rise[i, 1])
        report = FailurePredictionReport(
            knowledge_source_id=SOURCES[int(sources[i])],
            sensed_object_id=f"obj:m{int(objects[i])}",
            machine_condition_id=conditions[int(conds[i])],
            severity=float(severity[i]),
            belief=float(belief[i]),
            timestamp=t0 + i * dt,
            dc_id=f"dc:{i % SYNTHETIC_DCS}",
            explanation="synthetic benchmark evidence",
            prognostic=PrognosticVector(
                [
                    PrognosticPoint(3600.0 + h, p0),
                    PrognosticPoint(6 * 3600.0 + h, p1),
                    PrognosticPoint(24 * 3600.0 + h, p2),
                ]
            ),
        )
        yield f"dc:{i % SYNTHETIC_DCS}#{i // SYNTHETIC_DCS}", report
