"""The fleet query gateway: a high-throughput read path over the OOSM.

The PDME exists to *serve* fused machinery-health knowledge ("the
health of a system based on the health of a constituent part"), but
until this layer every consumer re-walked ``ShipModel`` and re-fused
``fused_snapshot()`` from scratch.  :class:`FleetGateway` is the one
front door, deployed one way (:func:`gateway_for_sharded`): fused
state from the sharded router, report pages from read replicas of its
partition logs, bulk writes through the router.  Each endpoint has one
method and one cached form, the response text the HTTP server sends:

* ``fleet_health_json``, ``health_json``, ``alarms_json`` and
  ``managed_object_json`` return canonical JSON text;
* ``managed_objects``, ``measurements`` and ``reports`` return
  :class:`~repro.gateway.pagination.Page` objects the server renders;
* ``post_reports`` and ``subscribe`` are the write and push paths.

What it offers:

* **typed resources** (:mod:`repro.gateway.resources`) over OOSM
  entities, the report log, and fused diagnostic/prognostic state;
* **versioned caching** (:mod:`repro.gateway.cache`): one slot per
  query shape, holding the version it was built at — ``(as_of,
  intake_watermark)`` for fused documents, ``ShipModel.version`` for
  entity documents; repeat queries between writes are O(1) dict hits,
  and a newer build replaces the slot's older one;
* **reads in proportion to the change**: a health read asks the
  fused provider only for the object's part-of closure (on the
  owning shards); the alarm list and the fleet document re-render
  only the diagnostic entries a write replaced, and the fleet
  document writes each curve straight from its fused pairs (a
  single-report curve fills only its times into a kept text);
* **keyset pagination** (:mod:`repro.gateway.pagination`): log pages
  seek on the ``(intake_seq, row)`` index, never OFFSET, and decode
  each stored row once;
* **push subscriptions** riding the OOSM event bus (§4.5: "without
  the need to poll");
* **bulk read/write**: bulk reads page the replica, bulk writes
  delegate to the owning PDME router (``submit_batch``) so the
  single-writer discipline of the partition logs is never bypassed.

Request counters and (optional) latency histograms land in
:mod:`repro.obs` under ``gateway.*``: every request is counted and
timed once under its own endpoint, cache hits included.  Latency needs
a real clock, so the gateway takes an injected ``timer`` callable — the
HTTP server passes ``time.perf_counter``; library use leaves it None
and pays nothing.  The gateway itself never reads a
wall clock.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.common.errors import GatewayError
from repro.common.ids import ObjectId
from repro.gateway.cache import VersionedCache
from repro.gateway.pagination import (
    MAX_PAGE_SIZE,
    Page,
    clamp_limit,
    decode_cursor,
    decode_string_cursor,
    encode_cursor,
    page_sequence,
)
from repro.gateway.replica import ReadReplica
from repro.gateway.resources import (
    Alarm,
    ManagedObject,
    Measurement,
    Report,
    Subscription,
)
from repro.obs.registry import Counter, MetricsRegistry, default_registry
from repro.oosm.events import ReportBatchPosted, ReportPosted
from repro.oosm.model import ShipModel
from repro.oosm.persistence import load_payload
from repro.protocol.canonical import (
    array_text,
    canonical_dumps,
    canonical_text,
    float_text,
    object_text,
    pairs_text,
)
from repro.protocol.report import FailurePredictionReport
from repro.protocol.wire import decode_report

if TYPE_CHECKING:
    from repro.fusion.diagnostic import FusedDiagnosis
    from repro.pdme.shard import ShardedPdme

#: Sub-millisecond-resolution edges for request latencies (seconds).
#: Cached hits land in the leading microsecond buckets, uncached
#: re-fusions in the millisecond range — one histogram shows both.
REQUEST_LATENCY_EDGES: tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0,
    2.5, 5.0,
)


#: Decoded log rows a gateway keeps, keyed by their payload text: two
#: full pages' worth.
PAGE_MEMO_ROWS = 2 * MAX_PAGE_SIZE
#: Where the entries of the fleet document's two sections, and of the
#: alarm list, start: two levels in.
_ENTRY_NL = "\n    "


def _no_latency() -> None:
    """The latency observer when no timer is attached."""


def _decode_row(payload: str) -> FailurePredictionReport:
    return decode_report(load_payload(payload))


def _curve_entry_text(
    report_count: int, pair_texts: Iterable[tuple[str, str]], nl: str
) -> str:
    """The text of one ``"prognostic"`` entry of the fused snapshot,
    ``{"curve": [[t, p], ...], "report_count": n}``, on a line indented
    by ``nl``, from the texts of its curve's pairs."""
    inner = nl + "  "
    return (
        "{" + inner + '"curve": ' + pairs_text(pair_texts, inner)
        + "," + inner + '"report_count": ' + int.__repr__(report_count)
        + nl + "}"
    )


def _alarm(series_key: str, state: FusedDiagnosis) -> Alarm:
    """The alarm a raised diagnostic state reads as."""
    obj, group = series_key.split("|", 1)
    beliefs = state.beliefs
    top = max(sorted(beliefs), key=lambda c: beliefs[c])
    return Alarm(
        object_id=obj,
        group=group,
        condition_id=top,
        severity=state.severity,
        belief=beliefs[top],
        status="ACTIVE",
    )


class FleetGateway:
    """The typed, cached, paginated serving layer.

    Parameters
    ----------
    model:
        The OOSM holding entities/relationships and the retained
        measurement series.
    fused:
        The fused-state provider, the sharded router
        (:class:`~repro.pdme.shard.ShardedPdme`).  It publishes its
        ``as_of`` and ``intake_watermark`` only once a write is fused.
    replica:
        The :class:`ReadReplica` report pages are read from, so log
        reads never contend with ingest.
    writer:
        Optional bulk-write sink ``(reports, report_ids) -> int``.
        Pass the owning router's ``submit_batch`` — the gateway never
        opens its own write path to a partition.
    timer:
        Optional monotonic-seconds callable for latency histograms.
    """

    def __init__(
        self,
        model: ShipModel,
        fused: ShardedPdme,
        *,
        replica: ReadReplica | None = None,
        writer: Callable[..., int] | None = None,
        metrics: MetricsRegistry | None = None,
        timer: Callable[[], float] | None = None,
    ) -> None:
        self.model = model
        self.fused = fused
        self.replica = replica
        self._writer = writer
        # Bulk writes from server threads are serialized here: the
        # partition logs stay single-writer even when N HTTP workers
        # POST concurrently.
        self._write_lock = threading.Lock()
        self._timer = timer
        self.metrics = metrics if metrics is not None else default_registry()
        self.cache = VersionedCache(metrics=self.metrics)
        self._m_latency = self.metrics.histogram(
            "gateway.request_seconds", edges=REQUEST_LATENCY_EDGES
        )
        self._m_requests: dict[str, Counter] = {}
        self._m_pushes = self.metrics.counter("gateway.subscription_pushes")
        self._m_bulk_written = self.metrics.counter("gateway.bulk_reports_written")
        self._subscriptions: dict[str, Subscription] = {}
        self._next_subscription = 0
        #: Rendered texts by series key, each with the state it was
        #: rendered from: the fleet document's diagnostic entries and
        #: the alarm list's entries.  Each render replaces its dict
        #: wholesale, so they hold only the pairs it read.
        self._diagnostic_texts: dict[str, tuple[FusedDiagnosis, str]] = {}
        self._alarm_texts: dict[str, tuple[FusedDiagnosis, str]] = {}
        #: The single-report prognostic pairs' entry texts with ``%s``
        #: for each knot time, with the probabilities they hold, by
        #: series key; replaced wholesale like the texts above.
        self._curve_templates: dict[str, tuple[tuple[float, ...], str]] = {}
        #: Report pages decode each stored row once (rows never change).
        self._decode_row = lru_cache(maxsize=PAGE_MEMO_ROWS)(_decode_row)
        # Push fan-out rides the OOSM event model: one bus handler per
        # event class, delivering to matching subscriptions.
        model.bus.subscribe(ReportPosted, self._push_report)
        model.bus.subscribe(ReportBatchPosted, self._push_report_batch)

    # -- internals --------------------------------------------------------
    def _count(self, endpoint: str) -> Callable[[], None]:
        """Count a request; returns a closure observing its latency.

        Every public endpoint calls this exactly once per request, cache
        hits included; the bodies they share are uncounted helpers.
        """
        counter = self._m_requests.get(endpoint)
        if counter is None:
            counter = self._m_requests[endpoint] = self.metrics.counter(
                "gateway.requests", endpoint=endpoint
            )
        counter.inc()
        if self._timer is None:
            return _no_latency
        t0 = self._timer()
        return lambda: self._m_latency.observe(max(0.0, self._timer() - t0))

    def _now(self) -> float:
        return float(self.fused.as_of)

    def _fused_version(self, as_of: float, *entity) -> tuple:
        # Read as_of before the watermark: a provider publishes both
        # only after the write is fused, so a version holding the new
        # watermark is always built over the new state.
        return (as_of, self.fused.intake_watermark, *entity)

    def _fleet_document(self, as_of: float) -> str:
        """Canonical bytes of the fused snapshot at ``as_of``, rendering
        only what a write changed.

        A diagnostic entry keeps its text while the provider returns
        the same :class:`FusedDiagnosis` object for its pair: an ingest
        replaces that object and never changes it.  Every write moves
        ``as_of`` and with it every prognostic curve, so each curve is
        written from its fused pairs; a single-report pair keeps its
        text with the times left open, and a read fills them in while
        its probabilities are the ones the text holds.  Each
        part is rendered where it sits in the document, so the bytes
        equal ``canonical_dumps(fused_snapshot(as_of))``.
        """
        old = self._diagnostic_texts
        texts: dict[str, tuple[FusedDiagnosis, str]] = {}
        for series_key, state in self.fused.fused_diagnoses().items():
            memo = old.get(series_key)
            if memo is None or memo[0] is not state:
                memo = (state, canonical_text(state.snapshot_entry(), _ENTRY_NL))
            texts[series_key] = memo
        self._diagnostic_texts = texts
        kept = self._curve_templates
        templates: dict[str, tuple[tuple[float, ...], str]] = {}
        prognostic: dict[str, str] = {}
        for series_key, (count, vector) in self.fused.fused_curves(as_of).items():
            pairs = vector.to_pairs()
            times, probabilities = zip(*pairs) if pairs else ((), ())
            time_texts = map(float_text, map(float, times))
            if count != 1:
                prognostic[series_key] = _curve_entry_text(
                    count,
                    zip(time_texts, map(float_text, map(float, probabilities))),
                    _ENTRY_NL,
                )
                continue
            # Re-basing one report moves its times and keeps its
            # probabilities, so its text differs between writes only in
            # the times.  Texts of floats hold no "%".
            memo = kept.get(series_key)
            if memo is None or memo[0] != probabilities:
                slots = [("%s", float_text(float(p))) for p in probabilities]
                memo = (probabilities, _curve_entry_text(1, slots, _ENTRY_NL))
            templates[series_key] = memo
            prognostic[series_key] = memo[1] % tuple(time_texts)
        self._curve_templates = templates
        return object_text({
            "as_of": canonical_text(as_of),
            "diagnostic": object_text(
                {k: memo[1] for k, memo in texts.items()}, "\n  "
            ),
            "prognostic": object_text(prognostic, "\n  "),
        }) + "\n"

    # -- managed objects --------------------------------------------------
    def managed_objects(
        self,
        type_name: str | None = None,
        kind_of: str | None = None,
        after: str | None = None,
        limit: int | None = None,
    ) -> Page:
        """Entities, id-ordered, keyset-paginated by id."""
        done = self._count("managed_objects")
        try:
            size = clamp_limit(limit)
            shape = ("managed_objects", type_name, kind_of)
            version = self.model.version
            ids = self.cache.get(shape, version)
            if ids is None:
                ids = self.cache.put(shape, version, sorted(
                    e.id for e in self.model.entities(
                        type_name=type_name, kind_of=kind_of
                    )
                ))
            page = page_sequence(
                ids, lambda i: i, decode_string_cursor(after), size
            )
            return Page(
                items=tuple(
                    ManagedObject.from_entity(self.model, i) for i in page.items
                ),
                next_cursor=page.next_cursor,
            )
        finally:
            done()

    def managed_object_json(self, object_id: ObjectId) -> str:
        """Canonical bytes for one object, cached by model version."""
        done = self._count("managed_object_json")
        try:
            shape = ("managed_object_json", object_id)
            version = self.model.version
            doc = self.cache.get(shape, version)
            if doc is None:
                if object_id not in self.model:
                    raise GatewayError(f"no managed object {object_id!r}")
                entity = ManagedObject.from_entity(self.model, object_id)
                doc = self.cache.put(shape, version, canonical_dumps(entity.to_json()))
            return doc
        finally:
            done()

    # -- measurements -----------------------------------------------------
    def measurements(
        self,
        object_id: ObjectId,
        after: str | None = None,
        limit: int | None = None,
    ) -> Page:
        """The (severity, belief) series for one object, oldest first.

        Backed by the OOSM's retained report list; the list is
        append-only, so the positional key is stable and keyset pages
        never skip or duplicate under concurrent posting.
        """
        done = self._count("measurements")
        try:
            if object_id not in self.model:
                raise GatewayError(f"no managed object {object_id!r}")
            size = clamp_limit(limit)
            series = [
                (f"{i:012d}", Measurement.from_report(r))
                for i, r in enumerate(self.model.reports_for(object_id))
            ]
            page = page_sequence(
                series, lambda pair: pair[0], decode_string_cursor(after), size
            )
            return Page(
                items=tuple(m for _, m in page.items),
                next_cursor=page.next_cursor,
            )
        finally:
            done()

    # -- reports (the durable log) ----------------------------------------
    def reports(
        self, after: str | None = None, limit: int | None = None
    ) -> Page:
        """One keyset page of the durable report log, arrival order.

        Served from the read replica: zero contention with ingest.
        """
        done = self._count("reports")
        try:
            size = clamp_limit(limit)
            if self.replica is None:
                raise GatewayError(
                    "no report log attached: pass replica= to serve report pages"
                )
            rows = self.replica.page_after(decode_cursor(after), size)
            decode = self._decode_row
            items = tuple(
                Report(
                    intake_seq=row[0],
                    row_id=row[1],
                    report_id=row[2],
                    report=decode(row[3]),
                )
                for row in rows
            )
            cursor = None
            if len(rows) == size:
                last = rows[-1]
                cursor = encode_cursor(
                    (last[0] if last[0] is not None else -1, last[1])
                )
            return Page(items=items, next_cursor=cursor)
        finally:
            done()

    # -- fused health -----------------------------------------------------
    def fleet_health_json(self, use_cache: bool = True) -> str:
        """Canonical bytes of the complete fused model document, cached
        by watermark.

        ``use_cache=False`` recomputes snapshot *and* serialization
        from scratch — the oracle cached responses are compared against,
        byte for byte (``benchmarks/gates.py`` and the gateway tests).
        """
        done = self._count("fleet_health_json")
        try:
            as_of = self._now()
            if not use_cache:
                return canonical_dumps(self.fused.fused_snapshot(as_of=as_of))
            version = self._fused_version(as_of)
            doc = self.cache.get("fleet_health_json", version)
            if doc is None:
                doc = self.cache.put(
                    "fleet_health_json", version, self._fleet_document(as_of)
                )
            return doc
        finally:
            done()

    def health_json(self, object_id: ObjectId) -> str:
        """Canonical bytes of the fused health slice for one object
        (§10.1 multi-level: every entry of the object's part-of closure,
        so a system's health reflects its constituent parts), cached by
        watermark and model version."""
        done = self._count("health_json")
        try:
            as_of = self._now()
            shape = ("health_json", object_id)
            version = self._fused_version(as_of, self.model.version)
            doc = self.cache.get(shape, version)
            if doc is None:
                if object_id not in self.model:
                    raise GatewayError(f"no managed object {object_id!r}")
                scope = {object_id} | self.model.parts_closure_ids(object_id)
                snap = self.fused.fused_snapshot(as_of=as_of, objects=scope)
                doc = self.cache.put(shape, version, canonical_dumps({
                    "object": object_id,
                    "as_of": snap["as_of"],
                    "diagnostic": snap["diagnostic"],
                    "prognostic": snap["prognostic"],
                }))
            return doc
        finally:
            done()

    # -- alarms -----------------------------------------------------------
    def _raised(self, threshold: float) -> list[tuple[str, FusedDiagnosis]]:
        """Diagnostic states at or above ``threshold`` severity, by key."""
        states = self.fused.fused_diagnoses()
        raised = []
        for series_key in sorted(states):
            state = states[series_key]
            if state.severity < threshold:
                continue
            raised.append((series_key, state))
        return raised

    def alarms_json(self, threshold: float = 0.5) -> str:
        """Canonical bytes of the alarm list: fused diagnostic states at
        or above ``threshold`` severity, ordered (object, group,
        condition).

        An entry keeps its text while its pair's :class:`FusedDiagnosis`
        is the same object, as the fleet document's entries do.
        """
        done = self._count("alarms_json")
        try:
            shape = ("alarms_json", round(float(threshold), 12))
            version = self._fused_version(self._now())
            doc = self.cache.get(shape, version)
            if doc is None:
                old = self._alarm_texts
                texts: dict[str, tuple[FusedDiagnosis, str]] = {}
                for series_key, state in self._raised(threshold):
                    memo = old.get(series_key)
                    if memo is None or memo[0] is not state:
                        alarm = _alarm(series_key, state).to_json()
                        memo = (state, canonical_text(alarm, _ENTRY_NL))
                    texts[series_key] = memo
                self._alarm_texts = texts
                items = [memo[1] for memo in texts.values()]
                doc = self.cache.put(
                    shape,
                    version,
                    object_text({"alarms": array_text(items, "\n  ")}) + "\n",
                )
            return doc
        finally:
            done()

    # -- subscriptions ----------------------------------------------------
    def subscribe(
        self,
        handler: Callable[[FailurePredictionReport], None],
        object_id: ObjectId | None = None,
    ) -> Subscription:
        """Push reports to ``handler`` as they post — no polling.

        ``object_id`` filters to one sensed object (None = firehose).
        The returned handle's :meth:`Subscription.cancel` detaches.
        """
        done = self._count("subscribe")
        try:
            if object_id is not None and object_id not in self.model:
                raise GatewayError(f"no managed object {object_id!r}")
            sid = f"sub:{self._next_subscription}"
            self._next_subscription += 1
            sub = Subscription(id=sid, object_id=object_id, handler=handler)
            sub._detach = lambda: self._subscriptions.pop(sid, None)
            self._subscriptions[sid] = sub
            return sub
        finally:
            done()

    def _deliver(self, report: FailurePredictionReport) -> None:
        for sub in list(self._subscriptions.values()):
            if sub.object_id is not None and sub.object_id != report.sensed_object_id:
                continue
            sub.handler(report)
            sub.delivered += 1
            self._m_pushes.inc()

    def _push_report(self, event: ReportPosted) -> None:
        self._deliver(event.report)

    def _push_report_batch(self, event: ReportBatchPosted) -> None:
        for report in event.reports:
            self._deliver(report)

    # -- bulk write -------------------------------------------------------
    def post_reports(
        self,
        reports: Sequence[FailurePredictionReport],
        report_ids: Sequence[str | None] | None = None,
    ) -> int:
        """Bulk-ingest through the owning router; returns written count.

        Lands as coalesced per-shard ``ingest_batch`` transactions —
        the gateway never writes a partition itself, so the logs'
        single-writer discipline survives having a serving layer.
        """
        done = self._count("post_reports")
        try:
            if self._writer is None:
                raise GatewayError(
                    "no writer attached: pass writer= (e.g. a ShardedPdme's "
                    "submit_batch) to accept bulk writes"
                )
            with self._write_lock:
                written = int(self._writer(list(reports), report_ids))
            self._m_bulk_written.inc(written)
            return written
        finally:
            done()

    # -- diagnostics ------------------------------------------------------
    def stats(self) -> dict:
        """Gateway-local serving stats (cache + subscription state)."""
        return {
            "cache_entries": len(self.cache),
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "subscriptions": len(self._subscriptions),
            "watermark": self.fused.intake_watermark,
            "model_version": self.model.version,
        }


def gateway_for_sharded(
    model: ShipModel,
    pdme: ShardedPdme,
    metrics: MetricsRegistry | None = None,
    timer: Callable[[], float] | None = None,
) -> FleetGateway:
    """The gateway's one deployment: replica reads, router writes."""
    return FleetGateway(
        model,
        pdme,
        replica=ReadReplica.for_pdme(pdme),
        writer=pdme.submit_batch,
        metrics=metrics,
        timer=timer,
    )
