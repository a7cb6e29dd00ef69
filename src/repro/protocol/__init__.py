"""§7 Failure Prediction Reporting Protocol.

The standard report every knowledge source emits toward the PDME:
identifiers, machine condition, severity, belief, human-readable text
and an optional prognostic vector of (probability, time) pairs.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.protocol.canonical": ["canonical_json", "report_to_dict"],
    "repro.protocol.prognostic": ["PrognosticPoint", "PrognosticVector"],
    "repro.protocol.report": ["FailurePredictionReport", "ReportKind"],
    "repro.protocol.severity": [
        "SeverityGrade",
        "grade_from_score",
        "grade_to_horizon",
    ],
    "repro.protocol.wire": ["decode_report", "encode_report"],
})
