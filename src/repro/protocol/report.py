"""The failure-prediction report (§5.5, §7.2, §7.3).

Every knowledge source — DC-resident or PDME-resident — communicates
conclusions in this one format, so that the PDME can fuse and display
results "from many diverse expert systems supplying diagnostic and
prognostic conclusions based upon similar, overlapping or entirely
disjoint sensor readings" (§7.1).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.common.errors import ProtocolError
from repro.common.ids import ObjectId
from repro.protocol.prognostic import PrognosticVector


class ReportKind(enum.Enum):
    """Whether a report carries a diagnosis, a prognosis, or both."""

    DIAGNOSTIC = "diagnostic"
    PROGNOSTIC = "prognostic"
    COMBINED = "combined"


@dataclass(frozen=True)
class FailurePredictionReport:
    """One §7 report.

    Field names follow §7.2/§7.3; §5.5 notes "not all reports need use
    all fields", so the text fields and the prognostic vector are
    optional.

    Attributes
    ----------
    knowledge_source_id:
        Unique MPROS object ID of the emitting knowledge source (KS ID).
    sensed_object_id:
        Unique MPROS object ID of the machine/part this report applies to.
    machine_condition_id:
        Unique MPROS object ID of the diagnosed machine condition
        (e.g. motor imbalance, pump bearing housing looseness).
    severity:
        Relative severity of the condition, in [0, 1]; 1.0 maximal.
    belief:
        Belief that the diagnosis is true, in [0, 1]; 1.0 maximal.
    timestamp:
        Simulated seconds at which the report is "effective".
    dc_id:
        Identifier of the data concentrator that sourced the report
        (empty for PDME-resident sources).
    explanation / recommendations / additional_info:
        Optional human-readable text (possibly very long; may be blank).
    prognostic:
        Optional prognostic vector; an empty vector means the source
        offers no failure projection ("zero to n ordered pairs").
    degraded:
        True when the issuing DC produced this report in degraded mode
        (e.g. its vibration channel is quarantined and the analysis ran
        on process variables only).  Consumers should weight such
        conclusions accordingly rather than treat the DC as silent.
    """

    knowledge_source_id: ObjectId
    sensed_object_id: ObjectId
    machine_condition_id: ObjectId
    severity: float
    belief: float
    timestamp: float
    dc_id: ObjectId = ""
    explanation: str = ""
    recommendations: str = ""
    additional_info: str = ""
    prognostic: PrognosticVector = field(default_factory=PrognosticVector.empty)
    degraded: bool = False

    def __post_init__(self) -> None:
        for name in ("knowledge_source_id", "sensed_object_id", "machine_condition_id"):
            if not getattr(self, name):
                raise ProtocolError(f"report field {name} must be non-empty")
        # Chained comparisons are false for NaN, so the three range
        # checks also reject every non-finite value.
        if not 0.0 <= self.severity <= 1.0:
            raise ProtocolError(f"severity must be in [0, 1], got {self.severity}")
        if not 0.0 <= self.belief <= 1.0:
            raise ProtocolError(f"belief must be in [0, 1], got {self.belief}")
        if not 0.0 <= self.timestamp < math.inf:
            raise ProtocolError(f"timestamp must be finite and >= 0, got {self.timestamp}")
        if not isinstance(self.prognostic, PrognosticVector):
            raise ProtocolError("prognostic must be a PrognosticVector")

    @property
    def kind(self) -> ReportKind:
        """Classify the report by what it carries."""
        if len(self.prognostic) and self.belief > 0:
            return ReportKind.COMBINED
        if len(self.prognostic):
            return ReportKind.PROGNOSTIC
        return ReportKind.DIAGNOSTIC

    def with_timestamp(self, t: float) -> "FailurePredictionReport":
        """Copy of this report re-stamped at time ``t``."""
        return FailurePredictionReport(
            knowledge_source_id=self.knowledge_source_id,
            sensed_object_id=self.sensed_object_id,
            machine_condition_id=self.machine_condition_id,
            severity=self.severity,
            belief=self.belief,
            timestamp=t,
            dc_id=self.dc_id,
            explanation=self.explanation,
            recommendations=self.recommendations,
            additional_info=self.additional_info,
            prognostic=self.prognostic,
            degraded=self.degraded,
        )

    def summary(self) -> str:
        """One-line human-readable summary for logs and the browser."""
        tail = f", {len(self.prognostic)}-pt prognosis" if len(self.prognostic) else ""
        tail += ", degraded" if self.degraded else ""
        return (
            f"[{self.timestamp:.1f}s] {self.knowledge_source_id} -> "
            f"{self.sensed_object_id}: {self.machine_condition_id} "
            f"(sev {self.severity:.2f}, bel {self.belief:.2f}{tail})"
        )
