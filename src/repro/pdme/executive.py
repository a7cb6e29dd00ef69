"""The PDME executive: the DC uplink's RPC front and report admission.

Implements the §5.1 loop end to end:

1. Reports arriving over RPC (or submitted locally) are admitted:
   malformed entries, reports about unknown objects and id-less
   resends are refused or absorbed here.
2. Admitted reports land in a one-shard
   :class:`~repro.pdme.shard.ShardedPdme`, whose partition log is the
   report repository (§4) and decides which ids are duplicates; the
   shard's Knowledge Fusion engine fuses diagnostics and prognostics,
   and each fused report advances the §10.1 temporal view.
3. The router then posts every report it wrote to the OOSM, whose
   :class:`~repro.oosm.events.ReportPosted` event is the "new data"
   message clients subscribe to.
4. The fused state is what the browser and priority list read.
"""

from __future__ import annotations

from typing import Any

from repro.common.clock import Clock
from repro.common.errors import MprosError
from repro.fusion.engine import KnowledgeFusionEngine
from repro.fusion.temporal import TemporalAnalyzer
from repro.netsim.rpc import RpcEndpoint
from repro.obs.registry import MetricsRegistry, default_registry
from repro.oosm.model import ShipModel
from repro.pdme.priorities import PriorityEntry, prioritize
from repro.pdme.shard import ShardedPdme
from repro.protocol.report import FailurePredictionReport
from repro.protocol.wire import decode_report


class PdmeExecutive:
    """The PDME server object.

    Parameters
    ----------
    model:
        The OOSM instance this PDME serves; reports about objects it
        does not hold are refused, and every stored report is
        announced on its bus.
    clock:
        Optional simulated clock; when present, every stored report's
        age (intake time minus report timestamp) is observed into the
        ``pdme.intake.report_age_seconds`` histogram — live traffic
        lands near zero, catch-up replays show the outage they crossed.
    """

    def __init__(
        self,
        model: ShipModel,
        metrics: MetricsRegistry | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.model = model
        self.clock = clock
        self.metrics = metrics if metrics is not None else default_registry()
        #: The report store and fusion: one in-memory partition with
        #: the chiller groups.
        self.router = ShardedPdme(1, model=model, metrics=self.metrics)
        self._m_accepted = self.metrics.counter("pdme.reports_accepted")
        self._m_duplicates = self.metrics.counter("pdme.duplicates_dropped")
        self._m_refused = self.metrics.counter("pdme.reports_refused")
        self._m_conclusions = self.metrics.counter("pdme.conclusions")
        self._m_intake_age = self.metrics.histogram("pdme.intake.report_age_seconds")
        self.duplicates_dropped = 0
        self._seen_fingerprints: set[int] = set()
        #: §10.1 temporal reasoning: fused-belief trajectories per
        #: (object, condition), fed from every fused diagnostic report.
        self.temporal = TemporalAnalyzer()

    @property
    def engine(self) -> KnowledgeFusionEngine:
        """The fusion engine of the router's one shard."""
        return self.router.workers[0].engine

    # -- intake -----------------------------------------------------------
    def submit(
        self, report: FailurePredictionReport, report_id: str | None = None
    ) -> int:
        """Store and fuse one report; returns 1 if written, 0 if its id
        was already stored."""
        return len(self.submit_batch([report], [report_id]))

    def submit_batch(
        self,
        reports: list[FailurePredictionReport],
        report_ids: list[str | None] | None = None,
    ) -> list[int]:
        """Store and fuse a batch in one write; returns the positions of
        the reports written.  The rest repeat a stored id and count as
        duplicates."""
        written = self.router.write_batch(reports, report_ids, self._observe_fused)
        for i in written:
            self._m_accepted.inc()
            if self.clock is not None:
                self._m_intake_age.observe(
                    max(0.0, self.clock.now() - reports[i].timestamp)
                )
        dropped = len(reports) - len(written)
        if dropped:
            self.duplicates_dropped += dropped
            self._m_duplicates.inc(dropped)
        return written

    def _observe_fused(self, report: FailurePredictionReport) -> None:
        """Right after ``report`` fused: count it, and feed the temporal
        view the pair's belief as this report left it."""
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
    ) -> tuple[dict[str, Any], FailurePredictionReport | None, str | None]:
        """One wire entry's admission decision: its reply, plus the
        decoded report and its id when it is to be stored.

        At-least-once delivery from the DC uplinks means retried reports
        can arrive more than once (a lost ack, not a lost report) —
        including replays from a crashed-and-restarted DC whose acks
        died with it.  Intake is idempotent: duplicates are positively
        acknowledged but not re-fused.  The durable uplink-assigned
        ``report_id`` is authoritative, and the partition log decides
        on it when the report is stored; the content fingerprint covers
        id-less senders.  An admitted entry's fingerprint is recorded at
        once, so a later id-less copy in the same batch is a duplicate.
        """
        if not isinstance(entry, dict):
            return self._refuse("report must be a mapping"), None, None
        rid = entry.get("report_id")
        rid = rid if isinstance(rid, str) and rid else None
        try:
            report = decode_report(entry)
            fingerprint = self._fingerprint(report)
            if rid is None and fingerprint in self._seen_fingerprints:
                return self._duplicate(), None, None
            self.model.check_sensed(report)
        except MprosError as exc:
            # §5.1: inconsistent input is recorded, never fatal.
            return self._refuse(str(exc)), None, None
        self._seen_fingerprints.add(fingerprint)
        return {"accepted": True}, report, rid

    def _duplicate(self) -> dict[str, Any]:
        self.duplicates_dropped += 1
        self._m_duplicates.inc()
        return {"accepted": True, "duplicate": True}

    def _refuse(self, error: str) -> dict[str, Any]:
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
        reply, report, rid = self._admit(payload)
        if report is not None and not self.submit(report, rid):
            return {"accepted": True, "duplicate": True}
        return reply

    def _rpc_post_report_batch(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Batched intake: one store write per batch.

        Each entry gets the decision ``post_report`` would give it, in
        order; the admitted reports land through one
        :meth:`submit_batch`.  Replies carry per-report results aligned
        with the request order.
        """
        entries = payload.get("reports")
        if not isinstance(entries, list):
            self._m_refused.inc()
            return {"accepted": False, "error": "reports must be a list"}
        results: list[dict[str, Any]] = []
        slots: list[int] = []
        admitted: list[FailurePredictionReport] = []
        ids: list[str | None] = []
        for entry in entries:
            reply, report, rid = self._admit(entry)
            if report is not None:
                slots.append(len(results))
                admitted.append(report)
                ids.append(rid)
            results.append(reply)
        written = set(self.submit_batch(admitted, ids) if admitted else ())
        for k, slot in enumerate(slots):
            if k not in written:
                results[slot] = {"accepted": True, "duplicate": True}
        return {
            "accepted": True,
            "results": results,
            "accepted_count": len(written),
        }

    # -- queries -------------------------------------------------------------
    def priorities(self, now: float | None = None) -> list[PriorityEntry]:
        """The prioritized maintenance list (§3.1), including the
        §10.1 temporal view: an intermittent condition whose episodes
        recur ever faster gets its projected saturation time as a
        conservative TTF input."""
        return prioritize(self.engine, now=now, temporal=self.temporal)

    def report_count(self) -> int:
        """Reports stored in the partition log."""
        return self.router.report_count

    def fused_model(self, as_of: float | None = None) -> dict:
        """The complete fused model as a JSON-ready dict, at the
        router's ``as_of`` unless given (see
        :meth:`repro.pdme.shard.ShardedPdme.fused_snapshot`)."""
        return self.router.fused_snapshot(as_of)
