"""The demo fleet report stream.

A deterministic stream of failure-prediction reports over a small
fleet of chillers.  ``mpros serve`` boots its gateway on it, and the
``shard_scaling`` and ``gateway`` gates in ``benchmarks/gates.py``
and the shard and gateway tests replay it.
"""

from __future__ import annotations

from repro.protocol.prognostic import PrognosticPoint, PrognosticVector
from repro.protocol.report import FailurePredictionReport

CONDITIONS = (
    "mc:motor-rotor-bar",
    "mc:motor-stator-winding",
    "mc:oil-contamination",
    "mc:motor-imbalance",
)
SOURCES = ("ks:dli", "ks:fuzzy", "ks:sbfr")


def demo_reports(quick: bool) -> tuple[list[FailurePredictionReport], list[str]]:
    """``(reports, report_ids)``: 8 machines x 25 reports when ``quick``,
    else 24 x 80, machine-major, each with a three-point prognosis."""
    machines, per_machine = (8, 25) if quick else (24, 80)
    reports = []
    report_ids = []
    i = 0
    for m in range(machines):
        for r in range(per_machine):
            cond = CONDITIONS[(m + r) % len(CONDITIONS)]
            t = 1000.0 + r * 60.0 + m
            base = 0.15 + 0.02 * (r % 5)
            vec = PrognosticVector(
                [
                    PrognosticPoint(3600.0 * (1 + r % 4), min(1.0, base)),
                    PrognosticPoint(3600.0 * (6 + r % 4), min(1.0, base + 0.3)),
                    PrognosticPoint(3600.0 * (24 + r % 4), min(1.0, base + 0.6)),
                ]
            )
            reports.append(
                FailurePredictionReport(
                    knowledge_source_id=SOURCES[r % len(SOURCES)],
                    sensed_object_id=f"obj:m{m}",
                    machine_condition_id=cond,
                    severity=0.5,
                    belief=0.2 + 0.01 * (r % 10),
                    timestamp=t,
                    dc_id="dc:bench",
                    prognostic=vec,
                )
            )
            report_ids.append(f"dc:bench#{i}")
            i += 1
    return reports, report_ids
