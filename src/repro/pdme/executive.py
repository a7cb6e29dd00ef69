"""The PDME executive: report intake, OOSM posting, KF dispatch.

Implements the §5.1 loop end to end:

1. Reports arriving (over RPC or locally) are posted in the OOSM.
2. The OOSM's :class:`~repro.oosm.events.ReportPosted` event is the
   "new data" message.
3. The subscribed Knowledge Fusion engine fuses diagnostics and
   prognostics.
4. The fused state is what the browser and priority list read; each
   fused report also advances the §10.1 temporal view.
"""

from __future__ import annotations

from typing import Any

from repro.common.clock import Clock
from repro.common.errors import MprosError, ProtocolError
from repro.common.ids import ObjectId
from repro.fusion.engine import KnowledgeFusionEngine
from repro.fusion.groups import GroupRegistry, default_chiller_groups
from repro.fusion.temporal import TemporalAnalyzer
from repro.netsim.rpc import RpcEndpoint
from repro.obs.registry import MetricsRegistry, default_registry
from repro.oosm.events import ReportBatchPosted, ReportPosted
from repro.oosm.model import ShipModel
from repro.pdme.priorities import PriorityEntry, prioritize
from repro.protocol.report import FailurePredictionReport
from repro.protocol.wire import decode_report


class PdmeExecutive:
    """The PDME server object.

    Parameters
    ----------
    model:
        The OOSM instance this PDME owns.
    registry:
        Logical failure groups (defaults to the chiller set).
    believability:
        Optional per-source discount factors for diagnostic fusion.
    clock:
        Optional simulated clock; when present, every accepted report's
        age (intake time minus report timestamp) is observed into the
        ``pdme.intake.report_age_seconds`` histogram — live traffic
        lands near zero, catch-up replays show the outage they crossed.
    """

    def __init__(
        self,
        model: ShipModel,
        registry: GroupRegistry | None = None,
        believability: dict[ObjectId, float] | None = None,
        metrics: MetricsRegistry | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.model = model
        self.clock = clock
        self.metrics = metrics if metrics is not None else default_registry()
        self.engine = KnowledgeFusionEngine(
            registry if registry is not None else default_chiller_groups(),
            believability=believability,
            metrics=self.metrics,
        )
        self._m_accepted = self.metrics.counter("pdme.reports_accepted")
        self._m_duplicates = self.metrics.counter("pdme.duplicates_dropped")
        self._m_refused = self.metrics.counter("pdme.reports_refused")
        self._m_conclusions = self.metrics.counter("pdme.conclusions")
        self._m_intake_age = self.metrics.histogram("pdme.intake.report_age_seconds")
        self.intake_errors: list[str] = []
        self.duplicates_dropped = 0
        self._seen_fingerprints: set[int] = set()
        self._seen_report_ids: set[str] = set()
        #: §10.1 temporal reasoning: fused-belief trajectories per
        #: (object, condition), fed from every fused diagnostic report.
        self.temporal = TemporalAnalyzer()
        # §5.1 steps 2-3: KF subscribes to OOSM "new data" events.
        model.bus.subscribe(ReportPosted, self._on_report_posted)
        model.bus.subscribe(ReportBatchPosted, self._on_report_batch_posted)

    # -- intake -----------------------------------------------------------
    def _observe_intake_age(self, report: FailurePredictionReport) -> None:
        if self.clock is not None:
            self._m_intake_age.observe(
                max(0.0, self.clock.now() - report.timestamp)
            )

    def submit(self, report: FailurePredictionReport) -> None:
        """Post one report into the OOSM (which triggers fusion)."""
        self._observe_intake_age(report)
        self.model.post_report(report)

    def submit_batch(self, reports: list[FailurePredictionReport]) -> None:
        """Post a batch of reports into the OOSM in one posting."""
        for report in reports:
            self._observe_intake_age(report)
        self.model.post_reports(reports)

    def _on_report_posted(self, event: ReportPosted) -> None:
        self._fuse(event.report)

    def _on_report_batch_posted(self, event: ReportBatchPosted) -> None:
        for report in event.reports:
            self._fuse(report)

    def _fuse(self, report: FailurePredictionReport) -> None:
        if not self.engine.ingest(report):
            return
        self._m_conclusions.inc()
        if report.belief > 0.0:
            belief = self.engine.diagnostic.belief(
                report.sensed_object_id, report.machine_condition_id
            )
            try:
                self.temporal.observe(
                    report.sensed_object_id,
                    report.machine_condition_id,
                    report.timestamp,
                    belief,
                )
            except MprosError:
                pass  # time-disordered report: temporal view skips it

    # -- RPC server (the DC uplink) -------------------------------------------
    def serve_on(self, endpoint: RpcEndpoint) -> None:
        """Expose the reporting protocol on an RPC endpoint."""
        endpoint.register("post_report", self._rpc_post_report)
        endpoint.register("post_report_batch", self._rpc_post_report_batch)
        endpoint.register("ping", lambda p: {"pdme": "ok"})

    def _admit(
        self, entry: Any
    ) -> tuple[dict[str, Any], FailurePredictionReport | None]:
        """One wire entry's intake decision: its reply, plus the decoded
        report when it is to be posted.

        At-least-once delivery from the DC uplinks means retried reports
        can arrive more than once (a lost ack, not a lost report) —
        including replays from a crashed-and-restarted DC whose acks
        died with it.  Intake is idempotent: duplicates are positively
        acknowledged but not re-fused.  The durable uplink-assigned
        ``report_id`` is authoritative; the content fingerprint covers
        id-less senders.  An accepted entry's keys are recorded at once,
        so a later copy in the same batch is a duplicate too.
        """
        if not isinstance(entry, dict):
            return self._refuse("report must be a mapping"), None
        rid = entry.get("report_id")
        rid = rid if isinstance(rid, str) and rid else None
        if rid is not None and rid in self._seen_report_ids:
            return self._duplicate(), None
        try:
            report = decode_report(entry)
            fingerprint = self._fingerprint(report)
            if rid is None and fingerprint in self._seen_fingerprints:
                return self._duplicate(), None
            if report.sensed_object_id not in self.model:
                raise ProtocolError(
                    f"report references unknown sensed object "
                    f"{report.sensed_object_id!r}"
                )
        except (ProtocolError, MprosError) as exc:
            # §5.1: inconsistent input is recorded, never fatal.
            return self._refuse(str(exc)), None
        self._seen_fingerprints.add(fingerprint)
        if rid is not None:
            self._seen_report_ids.add(rid)
        self._m_accepted.inc()
        return {"accepted": True}, report

    def _duplicate(self) -> dict[str, Any]:
        self.duplicates_dropped += 1
        self._m_duplicates.inc()
        return {"accepted": True, "duplicate": True}

    def _refuse(self, error: str) -> dict[str, Any]:
        self.intake_errors.append(error)
        self._m_refused.inc()
        return {"accepted": False, "error": error}

    @staticmethod
    def _fingerprint(report: FailurePredictionReport) -> int:
        return hash((
            report.knowledge_source_id,
            report.sensed_object_id,
            report.machine_condition_id,
            report.timestamp,
            report.severity,
            report.belief,
        ))

    def _rpc_post_report(self, payload: Any) -> dict[str, Any]:
        reply, report = self._admit(payload)
        if report is not None:
            self.submit(report)
        return reply

    def _rpc_post_report_batch(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Batched intake: one OOSM posting per batch.

        Each entry gets the decision ``post_report`` would give it, in
        order; the accepted reports enter the OOSM through one
        :meth:`submit_batch` posting.  Replies carry per-report results
        aligned with the request order.
        """
        entries = payload.get("reports")
        if not isinstance(entries, list):
            self._m_refused.inc()
            return {"accepted": False, "error": "reports must be a list"}
        results: list[dict[str, Any]] = []
        accept: list[FailurePredictionReport] = []
        for entry in entries:
            reply, report = self._admit(entry)
            results.append(reply)
            if report is not None:
                accept.append(report)
        if accept:
            self.submit_batch(accept)
        return {
            "accepted": True,
            "results": results,
            "accepted_count": len(accept),
        }

    # -- queries -------------------------------------------------------------
    def priorities(self, now: float | None = None) -> list[PriorityEntry]:
        """The prioritized maintenance list (§3.1), including the
        §10.1 temporal view: an intermittent condition whose episodes
        recur ever faster gets its projected saturation time as a
        conservative TTF input."""
        return prioritize(self.engine, now=now, temporal=self.temporal)

    def report_count(self) -> int:
        """Reports retained in the OOSM."""
        return self.model.report_count

    def fused_model(self, as_of: float | None = None) -> dict:
        """The complete fused model as a JSON-ready dict — the
        single-executive form of the sharded router's merged snapshot
        (see :meth:`repro.pdme.shard.ShardedPdme.fused_snapshot`)."""
        return self.engine.fused_snapshot(as_of=as_of)
