"""The Knowledge Fusion engine (§5.1).

Follows the paper's general format:

1. New reports arriving at the PDME are posted in the OOSM.
2. New posts generate "new data" messages to the KF components.
3. KF accesses the newly arrived data and performs diagnostic and
   prognostic fusion.
4. Conclusions are posted back (to the OOSM / user displays).

The engine is deliberately decoupled from the OOSM type: it consumes
:class:`~repro.protocol.report.FailurePredictionReport` objects pushed
at it (by the OOSM event bridge in :mod:`repro.pdme.executive`, by
tests, or by anything else) and keeps the fused *state* — step 4's
conclusions are read from :attr:`KnowledgeFusionEngine.diagnostic`,
:attr:`~KnowledgeFusionEngine.prognostic` and
:meth:`~KnowledgeFusionEngine.fused_snapshot` when a display or the
priority list asks.  §5.1 requires tolerance of "incomplete,
time-disordered, fragmentary" inputs with "gaps, inconsistencies, and
contradictions" — hence the per-report error isolation and the
out-of-order handling in the prognostic path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection

from repro.common.errors import MprosError
from repro.common.ids import ObjectId
from repro.fusion.diagnostic import DiagnosticFusion, FusedDiagnosis
from repro.fusion.groups import GroupRegistry
from repro.fusion.prognostic import PrognosticFusion
from repro.obs.registry import MetricsRegistry, default_registry
from repro.protocol.prognostic import PrognosticVector
from repro.protocol.report import FailurePredictionReport


@dataclass
class EngineStats:
    """Counters for monitoring and the robustness bench."""

    ingested: int = 0
    diagnostic_updates: int = 0
    prognostic_updates: int = 0
    rejected: int = 0
    errors: list[str] = field(default_factory=list)


class KnowledgeFusionEngine:
    """Drives diagnostic + prognostic fusion from a report stream.

    Parameters
    ----------
    registry:
        Logical failure groups for diagnostic fusion.
    believability:
        Optional per-knowledge-source discount factors.

    Prognostic curves combine by the paper's conservative envelope.
    """

    def __init__(
        self,
        registry: GroupRegistry,
        believability: dict[ObjectId, float] | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.diagnostic = DiagnosticFusion(registry, believability)
        self.prognostic = PrognosticFusion()
        self.stats = EngineStats()
        self._max_seen_time = 0.0
        reg = metrics if metrics is not None else default_registry()
        self._m_ingested = reg.counter("fusion.ingested")
        self._m_diag = reg.counter("fusion.diagnostic_updates")
        self._m_prog = reg.counter("fusion.prognostic_updates")
        self._m_rejected = reg.counter("fusion.rejected")
        #: How stale a report is when fused (now - report timestamp):
        #: the §5.1 "time-disordered, fragmentary" tolerance, measured.
        self._m_age = reg.histogram("fusion.report_age_seconds")

    def ingest(self, report: FailurePredictionReport) -> bool:
        """Fuse one report; malformed evidence is counted, not fatal.

        Returns whether the report was fused (False if rejected).
        """
        try:
            return self._fuse(report)
        finally:
            # Published only once the report's state is in place: a
            # reader that sees the new watermark or fusion "now" also
            # sees what this report fused.
            self._max_seen_time = max(self._max_seen_time, report.timestamp)
            self.stats.ingested += 1

    def _fuse(self, report: FailurePredictionReport) -> bool:
        self._m_ingested.inc()
        self._m_age.observe(
            max(self._max_seen_time, report.timestamp) - report.timestamp
        )
        diagnostic = report.belief > 0.0
        prognostic = len(report.prognostic) > 0
        if not (diagnostic or prognostic):
            # Carried neither usable diagnosis nor prognosis.
            self.stats.rejected += 1
            self._m_rejected.inc()
            return False
        try:
            if diagnostic:
                self.diagnostic.ingest(report)
                self.stats.diagnostic_updates += 1
                self._m_diag.inc()
            if prognostic:
                self.prognostic.ingest(report)
                self.stats.prognostic_updates += 1
                self._m_prog.inc()
        except MprosError as exc:
            self.stats.rejected += 1
            self._m_rejected.inc()
            self.stats.errors.append(f"{report.summary()}: {exc}")
            return False
        return True

    def ingest_batch(self, reports: list[FailurePredictionReport]) -> None:
        """Fuse a batch of reports in order; rejected ones are skipped.

        Semantically identical to calling :meth:`ingest` per report —
        the fused state is incremental either way — but gives callers
        (a shard worker's per-batch drain) one call per batch.
        """
        for report in reports:
            self.ingest(report)

    # -- convenience queries ----------------------------------------------
    @property
    def max_seen_time(self) -> float:
        """Latest report timestamp ingested so far (fusion "now")."""
        return self._max_seen_time

    @property
    def intake_watermark(self) -> int:
        """Monotone count of reports offered to this engine.

        Two snapshot requests at equal ``(as_of, intake_watermark)``
        are guaranteed equal — the key the gateway's versioned snapshot
        cache uses.  Rejected reports still advance the watermark
        (cheaper than proving a reject changed nothing, and a spurious
        cache miss is only a wasted recompute).  A report counts only
        once it is fused, so a reader holding the new watermark never
        reads the state from before it.
        """
        return self.stats.ingested

    def suspects(self, threshold: float = 0.5):
        """Delegates to :meth:`DiagnosticFusion.suspects`."""
        return self.diagnostic.suspects(threshold)

    def fused_snapshot(
        self, as_of: float | None = None, objects: Collection[ObjectId] | None = None
    ) -> dict:
        """The complete fused model as a plain JSON-ready dict.

        Every (object, group) diagnostic state and every (object,
        condition) prognostic curve, evaluated at ``as_of`` (default:
        the latest report timestamp seen by *this* engine).  With
        ``objects``, only the pairs of those objects — the same entries
        the full snapshot holds for them.

        Serialize with
        :func:`repro.protocol.canonical.canonical_dumps` for a
        byte-stable rendering.  Shard routers must pass the *global*
        ``as_of`` explicitly: per-shard engines see different local
        maxima, and prognostic curves age-shift history relative to
        ``now`` — only an explicit shared evaluation time makes the
        merged snapshot independent of the shard count.
        """
        t = as_of if as_of is not None else self._max_seen_time
        return {
            "as_of": t,
            "diagnostic": {
                key: state.snapshot_entry()
                for key, state in self.fused_diagnoses(objects).items()
            },
            "prognostic": {
                key: {
                    "report_count": count,
                    "curve": [[float(kt), float(kp)] for kt, kp in vector.to_pairs()],
                }
                for key, (count, vector) in self.fused_curves(t, objects).items()
            },
        }

    def fused_diagnoses(
        self, objects: Collection[ObjectId] | None = None
    ) -> dict[str, FusedDiagnosis]:
        """The live state behind the snapshot's ``"diagnostic"`` part,
        keyed ``"<object>|<group>"``.

        Diagnostic state does not depend on the evaluation time, and
        reading it runs no prognostic fusion.  An ingest replaces a
        pair's :class:`FusedDiagnosis` and never changes it, so a
        reader that kept one can tell whether the pair changed by
        identity.
        """
        state = self.diagnostic.state
        return {
            f"{obj}|{gname}": state(obj, gname)
            for obj, gname in self.diagnostic.keys()
            if objects is None or obj in objects
        }

    def fused_curves(
        self, as_of: float | None = None, objects: Collection[ObjectId] | None = None
    ) -> dict[str, tuple[int, PrognosticVector]]:
        """``(report_count, fused vector)`` per ``"<object>|<condition>"``
        at ``as_of``: the snapshot's ``"prognostic"`` part before it is
        turned into lists."""
        t = as_of if as_of is not None else self._max_seen_time
        fused = self.prognostic.fused
        return {
            f"{obj}|{cond}": fused(obj, cond, t)
            for obj, cond in self.prognostic.keys()
            if objects is None or obj in objects
        }

    def time_to_failure(
        self, sensed_object_id: ObjectId, machine_condition_id: ObjectId,
        probability: float = 0.5, now: float | None = None,
    ) -> float:
        """Fused time-to-failure estimate for a pair, in seconds."""
        t = now if now is not None else self._max_seen_time
        state = self.prognostic.state(sensed_object_id, machine_condition_id, t)
        return state.time_to_failure(probability)
