"""Store-and-forward report uplink (§4.9 / §3.4).

"Power supply and communications are stable in our labs but may not be
the same on board the ships.  Simulating the range of problems that may
arise will let us improve robustness to the point of long-term
unattended operation" — and "the installed system will be disconnected
from our labs for months at a time."

The uplink queues every report, transmits over RPC, and only discards a
report on a positive PDME acknowledgement; failures (drops, outages,
PDME restarts) leave it queued for the next flush.  The queue is
bounded: under a prolonged outage the *oldest* reports are shed first
(fresh condition data supersedes stale data, matching the DC's
ring-buffer philosophy).

Retries are paced by per-report exponential backoff: after each failed
delivery attempt a report waits ``retry_base * retry_factor**(n-1)``
seconds (capped at ``retry_cap``) before :meth:`flush` will re-send it.
During a §4.9 outage this stops the periodic flush from hammering a
dead link with the whole backlog every tick, while still converging to
one cheap probe per report per cap interval.  Time comes from the
endpoint's simulated clock — deterministic, testable with a fake clock.

Crash/restart recovery: every queued report carries a durable
``report_id`` (``<dc>#<seq>``) and, when a store is bound via
:meth:`bind_store`, is persisted until positively acknowledged.  A
restarted DC calls :meth:`recover` to reload its backlog — with the
*same* ids, so PDME-side dedup makes replays exactly-once at the OOSM
even when the crash ate the acks.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from typing import Any, Protocol

from repro.common.clock import Clock
from repro.common.errors import NetworkError
from repro.netsim.rpc import RpcEndpoint, RpcError
from repro.obs.registry import MetricsRegistry, default_registry
from repro.protocol.report import FailurePredictionReport
from repro.protocol.wire import decode_report, encode_report


class BacklogStore(Protocol):
    """Durable storage for unacknowledged reports (the DC database)."""

    def uplink_put(self, report_id: str, payload: dict[str, Any]) -> None: ...

    def uplink_delete(self, report_id: str) -> None: ...

    def uplink_rows(self) -> list[tuple[str, dict[str, Any]]]: ...


@dataclass
class UplinkStats:
    """Counters for monitoring the uplink.

    Kept as a plain attribute view for callers and tests; every field
    is mirrored into the process metrics registry under
    ``dc.uplink.*`` so fleet-level aggregation sees the same numbers.
    """

    queued: int = 0
    delivered: int = 0
    rejected: int = 0      # PDME refused (malformed/unknown object)
    shed: int = 0          # dropped from a full queue during an outage
    retries: int = 0       # re-flushes of previously failed reports
    deferred: int = 0      # flush skips while a report waits out backoff
    #: Age (seconds) of the *oldest* report ever shed, measured at shed
    #: time against the report's own timestamp.  ``shed == 10`` alone
    #: cannot distinguish "dropped 10 fresh duplicates" from "dropped a
    #: 3-hour backlog"; this number can, and it survives crash/recover
    #: cycles because report timestamps ride in the durable payload.
    oldest_shed_age: float = 0.0


class ReportUplink:
    """Reliable-ish DC→PDME report delivery over the unreliable network.

    Parameters
    ----------
    endpoint:
        The DC's RPC endpoint.
    pdme_name:
        Network name of the PDME endpoint.
    capacity:
        Maximum queued (unacknowledged) reports before shedding.
    retry_base / retry_factor / retry_cap:
        Exponential-backoff schedule for re-flushing failed reports:
        attempt ``n`` waits ``min(retry_cap, retry_base *
        retry_factor**(n-1))`` seconds after the failure.
    clock:
        Time source for the backoff deadlines (defaults to the
        endpoint kernel's simulated clock).
    store:
        Optional durable :class:`BacklogStore` (typically the DC
        database); when bound, unacked reports survive a DC crash and
        :meth:`recover` reloads them with their original ids.
    metrics:
        Metrics registry (default: the process-wide registry).
    """

    def __init__(
        self,
        endpoint: RpcEndpoint,
        pdme_name: str = "pdme",
        capacity: int = 512,
        retry_base: float = 1.0,
        retry_factor: float = 2.0,
        retry_cap: float = 60.0,
        clock: Clock | None = None,
        store: BacklogStore | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if capacity < 1:
            raise NetworkError("uplink capacity must be >= 1")
        if retry_base <= 0 or retry_factor < 1.0 or retry_cap < retry_base:
            raise NetworkError(
                "need retry_base > 0, retry_factor >= 1, retry_cap >= retry_base"
            )
        self.endpoint = endpoint
        self.pdme_name = pdme_name
        self.capacity = capacity
        self.retry_base = retry_base
        self.retry_factor = retry_factor
        self.retry_cap = retry_cap
        self.clock: Clock = clock if clock is not None else endpoint.kernel.clock
        self.store = store
        self._queue: OrderedDict[int, FailurePredictionReport] = OrderedDict()
        self._next_key = 0
        self._in_flight: set[int] = set()
        self._ever_sent: set[int] = set()
        self._attempts: dict[int, int] = {}
        self._next_retry: dict[int, float] = {}
        self.stats = UplinkStats()
        reg = metrics if metrics is not None else default_registry()
        dc = str(endpoint.name)
        self._m_queued = reg.counter("dc.uplink.queued", dc=dc)
        self._m_delivered = reg.counter("dc.uplink.delivered", dc=dc)
        self._m_rejected = reg.counter("dc.uplink.rejected", dc=dc)
        self._m_shed = reg.counter("dc.uplink.shed", dc=dc)
        self._m_retries = reg.counter("dc.uplink.retries", dc=dc)
        self._m_deferred = reg.counter("dc.uplink.deferred", dc=dc)
        self._m_depth = reg.gauge("dc.uplink.queue_depth", dc=dc)
        self._m_backlog = reg.gauge("dc.uplink.backlog", dc=dc)
        self._m_recovered = reg.counter("dc.uplink.recovered", dc=dc)
        self._m_ack_latency = reg.histogram("dc.uplink.ack_latency_seconds", dc=dc)
        self._m_shed_age = reg.histogram("dc.uplink.shed_age_seconds", dc=dc)
        self._m_oldest_shed = reg.gauge("dc.uplink.oldest_shed_age_seconds", dc=dc)
        self._submit_time: dict[int, float] = {}

    # -- backoff ---------------------------------------------------------
    def retry_delay(self, attempts: int) -> float:
        """Backoff delay after ``attempts`` failed sends (>= 1)."""
        if attempts < 1:
            raise NetworkError(f"attempts must be >= 1, got {attempts}")
        return min(self.retry_cap, self.retry_base * self.retry_factor ** (attempts - 1))

    def next_retry_at(self, key: int) -> float:
        """Earliest time :meth:`flush` will re-send a queued report
        (``-inf`` if it has never failed)."""
        return self._next_retry.get(key, float("-inf"))

    def report_id(self, key: int) -> str:
        """The durable exactly-once id of one queued report."""
        return f"{self.endpoint.name}#{key}"

    def _forget(self, key: int) -> None:
        self._attempts.pop(key, None)
        self._next_retry.pop(key, None)
        self._submit_time.pop(key, None)
        if self.store is not None:
            self.store.uplink_delete(self.report_id(key))

    def _account_shed(self, report: FailurePredictionReport) -> None:
        """Record one shed report's age (report-timestamp based, so the
        number means the same thing before and after a crash/recover)."""
        age = max(0.0, self.clock.now() - report.timestamp)
        self.stats.shed += 1
        self._m_shed.inc()
        self._m_shed_age.observe(age)
        if age > self.stats.oldest_shed_age:
            self.stats.oldest_shed_age = age
            self._m_oldest_shed.set(age)

    def _sync_depth(self) -> None:
        depth = len(self._queue)
        self._m_depth.set(depth)
        self._m_backlog.set(depth)

    def bind_store(self, store: BacklogStore) -> None:
        """Attach the durable backlog store (the DC database).

        Separate from construction because the uplink is built before
        the DC that owns the database; must be bound before any report
        is submitted or the persisted and in-memory views diverge.
        """
        if self.store is not None:
            raise NetworkError("uplink store already bound")
        if self._queue:
            raise NetworkError("cannot bind a store to an uplink with queued reports")
        self.store = store

    # -- intake ----------------------------------------------------------
    def submit(self, report: FailurePredictionReport) -> None:
        """Queue a report and immediately attempt delivery."""
        if len(self._queue) >= self.capacity:
            # Shed the oldest non-in-flight report.
            for key in self._queue:
                if key not in self._in_flight:
                    victim = self._queue.pop(key)
                    self._forget(key)
                    self._account_shed(victim)
                    break
            else:
                # Everything is in flight; shed the eldest anyway.
                key, victim = self._queue.popitem(last=False)
                self._in_flight.discard(key)
                self._forget(key)
                self._account_shed(victim)
        key = self._next_key
        self._next_key += 1
        self._queue[key] = report
        self._submit_time[key] = self.clock.now()
        if self.store is not None:
            self.store.uplink_put(self.report_id(key), self._payload(key))
        self.stats.queued += 1
        self._m_queued.inc()
        self._sync_depth()
        self._transmit(key)

    # -- delivery -----------------------------------------------------------
    def _payload(self, key: int) -> dict[str, Any]:
        payload = encode_report(self._queue[key])
        payload["report_id"] = self.report_id(key)
        return payload

    def _send(self, key: int) -> dict[str, Any]:
        """Mark one queued report in flight; returns its wire payload."""
        self._in_flight.add(key)
        if key in self._ever_sent:
            self.stats.retries += 1
            self._m_retries.inc()
        self._ever_sent.add(key)
        return self._payload(key)

    def _settle(self, key: int, result: dict | None) -> None:
        """Apply one report's delivery outcome: the PDME's per-report
        reply, or ``None`` when the attempt failed."""
        self._in_flight.discard(key)
        if key not in self._queue:
            return
        if result is None:
            # Keep queued; flush retries it once its backoff expires.
            attempts = self._attempts.get(key, 0) + 1
            self._attempts[key] = attempts
            self._next_retry[key] = self.clock.now() + self.retry_delay(attempts)
            return
        del self._queue[key]
        if result.get("accepted", False):
            self.stats.delivered += 1
            self._m_delivered.inc()
            submitted = self._submit_time.get(key)
            if submitted is not None:
                self._m_ack_latency.observe(self.clock.now() - submitted)
        else:
            # PDME actively refused: retrying is pointless.
            self.stats.rejected += 1
            self._m_rejected.inc()
        self._forget(key)
        self._sync_depth()

    def _transmit(self, key: int) -> None:
        if key in self._in_flight or key not in self._queue:
            return
        self.endpoint.call(
            self.pdme_name, "post_report", self._send(key),
            on_reply=lambda result: self._settle(key, result),
            on_error=lambda exc: self._settle(key, None),
        )

    def flush(self, force: bool = False) -> int:
        """Re-attempt queued, non-in-flight reports whose backoff has
        expired (all of them with ``force=True``).

        Wire this to the DC scheduler (e.g. once a minute) for
        unattended recovery after outages.  Returns attempts made.
        """
        now = self.clock.now()
        attempts = 0
        for key in list(self._queue):
            if key in self._in_flight:
                continue
            if not force and self._next_retry.get(key, float("-inf")) > now:
                self.stats.deferred += 1
                self._m_deferred.inc()
                continue
            self._transmit(key)
            attempts += 1
        return attempts

    def flush_batched(
        self, force: bool = False, max_batch: int = 64, limit: int | None = None
    ) -> int:
        """Batched alternative to :meth:`flush`: all eligible reports
        go up in one ``post_report_batch`` RPC per ``max_batch`` chunk.

        The per-report path stays the default: :meth:`flush` and
        :meth:`submit` never batch, so their traces are untouched; the
        streaming daemon's catch-up (:mod:`repro.stream.catchup`) is
        what drives this.  Delivery semantics match
        :meth:`flush`: per-report acks, per-report backoff on failure,
        and the PDME's batch intake dedups by the same durable ids, so
        OOSM state is byte-identical to per-report delivery.

        ``limit`` caps eligible reports taken this call (oldest first);
        the rest stay queued without touching their backoff state.  The
        streaming daemon uses this to drain an outage backlog in bounded
        per-tick chunks instead of one giant burst that starves live
        traffic.
        """
        if max_batch < 1:
            raise NetworkError(f"max_batch must be >= 1, got {max_batch}")
        if limit is not None and limit < 1:
            raise NetworkError(f"limit must be >= 1 when given, got {limit}")
        now = self.clock.now()
        eligible: list[int] = []
        for key in self._queue:
            if limit is not None and len(eligible) >= limit:
                break
            if key in self._in_flight:
                continue
            if not force and self._next_retry.get(key, float("-inf")) > now:
                self.stats.deferred += 1
                self._m_deferred.inc()
                continue
            eligible.append(key)
        for start in range(0, len(eligible), max_batch):
            self._transmit_batch(eligible[start:start + max_batch])
        return len(eligible)

    def _transmit_batch(self, keys: list[int]) -> None:
        payloads = [self._send(key) for key in keys]

        def on_reply(result: dict) -> None:
            results = result.get("results", [])
            for i, key in enumerate(keys):
                self._settle(key, results[i] if i < len(results) else None)

        def on_error(exc: RpcError) -> None:
            for key in keys:
                self._settle(key, None)

        self.endpoint.call(
            self.pdme_name, "post_report_batch", {"reports": payloads},
            on_reply=on_reply, on_error=on_error,
        )

    def shed_stale(self, cutoff: float) -> int:
        """Shed every queued, non-in-flight report older than ``cutoff``
        seconds (by its own timestamp).  Returns reports shed.

        The hard staleness bound for catch-up after downtime: a report
        whose condition data is hours old no longer improves the PDME's
        picture — fresh scans have superseded it — so replaying it only
        delays live traffic.  Shedding here goes through the same
        age accounting as capacity shedding, so the conservation law
        ``produced = delivered + backlog + shed + rejected`` still holds
        and post-mortems can see exactly how stale the discard was.
        """
        if cutoff <= 0:
            raise NetworkError(f"staleness cutoff must be > 0, got {cutoff}")
        now = self.clock.now()
        shed = 0
        for key in list(self._queue):
            if key in self._in_flight:
                continue
            report = self._queue[key]
            if now - report.timestamp > cutoff:
                del self._queue[key]
                self._forget(key)
                self._account_shed(report)
                shed += 1
        if shed:
            self._sync_depth()
        return shed

    # -- crash/restart recovery ------------------------------------------
    def crash(self) -> None:
        """Simulate process death: every *volatile* structure is wiped
        (queue, in-flight tracking, backoff state).  The durable store,
        if bound, keeps the unacked backlog for :meth:`recover`."""
        self._queue.clear()
        self._in_flight.clear()
        self._ever_sent.clear()
        self._attempts.clear()
        self._next_retry.clear()
        self._submit_time.clear()
        self._sync_depth()

    def recover(self) -> int:
        """Reload the persisted backlog after a restart.

        Reports come back with their original ids, so re-delivery of a
        report whose ack was lost in the crash is deduplicated PDME-side
        — exactly-once at the OOSM.  Returns reports recovered.  The
        queue must be empty (call :meth:`crash` first when simulating).
        """
        if self.store is None:
            raise NetworkError("uplink has no durable store to recover from")
        if self._queue:
            raise NetworkError("cannot recover into a non-empty uplink queue")
        now = self.clock.now()
        recovered = 0
        for report_id, payload in self.store.uplink_rows():
            prefix, sep, seq = report_id.rpartition("#")
            if not sep or prefix != str(self.endpoint.name) or not seq.isdigit():
                raise NetworkError(
                    f"persisted report id {report_id!r} does not belong to "
                    f"uplink {self.endpoint.name!r}"
                )
            key = int(seq)
            self._queue[key] = decode_report(payload)
            self._submit_time[key] = now
            self._next_key = max(self._next_key, key + 1)
            recovered += 1
        self.stats.queued += recovered
        self._m_recovered.inc(recovered)
        self._sync_depth()
        return recovered

    @property
    def backlog(self) -> int:
        """Reports queued and not yet acknowledged."""
        return len(self._queue)
