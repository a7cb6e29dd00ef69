"""FleetGateway endpoint behaviour: paging, health slices, alarms,
subscriptions, bulk writes, error paths."""

from __future__ import annotations

import json

import pytest

from repro.common.errors import GatewayError
from repro.gateway import FleetGateway, gateway_for_sharded
from repro.obs.registry import MetricsRegistry


def _first_object(reports):
    return sorted({r.sensed_object_id for r in reports})[0]


def test_managed_objects_drain_matches_model(fleet, gateway):
    model, _, _, _ = fleet
    seen = []
    cursor = None
    while True:
        page = gateway.managed_objects(after=cursor, limit=3)
        seen.extend(m.id for m in page.items)
        if page.next_cursor is None:
            break
        cursor = page.next_cursor
    assert seen == sorted(e.id for e in model.entities())


def test_managed_object_resource_fields(fleet, gateway):
    model, _, reports, _ = fleet
    first = _first_object(reports)
    doc = json.loads(gateway.managed_object_json(first))
    assert doc["id"] == first
    assert doc["type"] == "rotating-machine"
    assert doc["system"] == first  # no part-of edges in this fleet
    assert set(doc) == {
        "id", "type", "name", "properties", "parent", "system",
        "childAssets", "proximate", "flowsTo", "monitoredBy",
    }


def test_measurements_page_over_retained_series(fleet, gateway):
    model, _, reports, _ = fleet
    first = _first_object(reports)
    mine = [r for r in reports if r.sensed_object_id == first]
    model.post_reports(mine)
    page = gateway.measurements(first, limit=10)
    assert [m.time for m in page.items] == [r.timestamp for r in mine[:10]]
    rest = gateway.measurements(
        first, after=page.next_cursor and page.next_cursor, limit=1000
    )
    assert len(page.items) + len(rest.items) == len(mine)


def test_reports_drain_is_global_arrival_order(fleet, gateway):
    _, _, reports, _ = fleet
    seqs = []
    cursor = None
    while True:
        page = gateway.reports(cursor, 37)
        seqs.extend(r.intake_seq for r in page.items)
        if page.next_cursor is None:
            break
        cursor = page.next_cursor
    assert seqs == list(range(len(reports)))


def test_health_slice_restricted_to_object(fleet, gateway):
    _, _, reports, _ = fleet
    first = _first_object(reports)
    doc = json.loads(gateway.health_json(first))
    assert doc["object"] == first
    assert doc["diagnostic"]  # this object has fused state
    for key in list(doc["diagnostic"]) + list(doc["prognostic"]):
        assert key.split("|", 1)[0] == first


def test_alarm_threshold_monotone(gateway):
    def alarms(threshold):
        return json.loads(gateway.alarms_json(threshold))["alarms"]

    low = alarms(0.1)
    high = alarms(0.9)
    assert len(low) >= len(high)
    assert all(a["severity"] >= 0.5 for a in alarms(0.5))
    assert all(a["status"] == "ACTIVE" for a in low)


def test_subscription_filter_and_cancel(fleet, gateway):
    model, _, reports, _ = fleet
    first = _first_object(reports)
    other = [r for r in reports if r.sensed_object_id != first][0]
    mine: list = []
    everything: list = []
    sub = gateway.subscribe(mine.append, object_id=first)
    fire = gateway.subscribe(everything.append)
    model.post_report(next(r for r in reports if r.sensed_object_id == first))
    model.post_report(other)
    assert len(mine) == 1 and sub.delivered == 1
    assert len(everything) == 2 and fire.delivered == 2
    sub.cancel()
    assert not sub.active
    model.post_report(other)
    assert len(mine) == 1  # detached
    assert len(everything) == 3


def test_batch_post_fans_out_to_subscribers(fleet, gateway):
    model, _, reports, _ = fleet
    got: list = []
    gateway.subscribe(got.append)
    model.post_reports(reports[:5])
    assert len(got) == 5


def test_post_reports_routes_through_writer_with_dedup(fleet, gateway):
    _, pdme, reports, ids = fleet
    before = pdme.intake_watermark
    # Replays of already-written ids are absorbed: exactly-once fusion.
    assert gateway.post_reports(reports[:5], ids[:5]) == 0
    fresh = [
        reports[0].__class__(
            knowledge_source_id="ks:gw",
            sensed_object_id=reports[0].sensed_object_id,
            machine_condition_id="mc:oil-contamination",
            severity=0.7,
            belief=0.6,
            timestamp=99999.0,
            dc_id="dc:gw",
        )
    ]
    assert gateway.post_reports(fresh, ["dc:gw#1"]) == 1
    assert pdme.intake_watermark > before


def test_unknown_object_and_missing_backends_raise(fleet, gateway):
    model, pdme, _, _ = fleet
    for call in (
        lambda: gateway.managed_object_json("obj:nope"),
        lambda: gateway.measurements("obj:nope"),
        lambda: gateway.health_json("obj:nope"),
        lambda: gateway.subscribe(lambda r: None, "obj:nope"),
    ):
        with pytest.raises(GatewayError):
            call()
    bare = FleetGateway(model, pdme, metrics=MetricsRegistry())
    with pytest.raises(GatewayError):
        bare.reports(None, 10)
    with pytest.raises(GatewayError):
        bare.post_reports([], [])


def test_request_metrics_accumulate(fleet):
    model, pdme, reports, _ = fleet
    ticks = iter(range(10**6))
    gateway = gateway_for_sharded(
        model, pdme, metrics=MetricsRegistry(), timer=lambda: float(next(ticks))
    )
    first = _first_object(reports)
    gateway.reports(None, 5)
    # The second call of each pair is a cache hit: still one request,
    # counted and timed once, under its own endpoint.
    for _ in range(2):
        gateway.health_json(first)
        gateway.alarms_json(0.5)
        gateway.managed_object_json(first)
        gateway.fleet_health_json()
    snap = gateway.metrics.snapshot()
    counters = snap["counters"]
    assert counters["gateway.requests{endpoint=reports}"] == 1
    for endpoint in (
        "health_json", "alarms_json", "managed_object_json", "fleet_health_json"
    ):
        assert counters[f"gateway.requests{{endpoint={endpoint}}}"] == 2
    requests = sum(
        v for k, v in counters.items() if k.startswith("gateway.requests{")
    )
    assert requests == 9
    assert snap["histograms"]["gateway.request_seconds"]["count"] == requests


def test_read_inside_an_engine_ingest_never_pins_pre_write_state(fleet, gateway):
    """A read landing while a shard's engine fuses a write (after the
    store committed it) must not cache the pre-write document under the
    post-write key: the router publishes its watermark only after every
    shard has fused its part."""
    _, pdme, reports, _ = fleet
    first = reports[0].sensed_object_id
    engine = pdme.workers[pdme.layout.shard_of(first)].engine
    real = engine.diagnostic.ingest
    seen: list[str] = []

    def ingest_with_a_read(report):
        seen.append(gateway.fleet_health_json())
        return real(report)

    engine.diagnostic.ingest = ingest_with_a_read
    try:
        written = gateway.post_reports(
            [_fresh_report(reports[0], first, pdme.as_of + 10.0)], ["dc:gw#inside"]
        )
    finally:
        engine.diagnostic.ingest = real
    assert written == 1
    assert seen
    assert gateway.fleet_health_json() == gateway.fleet_health_json(use_cache=False)
    assert gateway.fleet_health_json() != seen[0]


def _fresh_report(template, object_id, timestamp):
    return template.__class__(
        knowledge_source_id="ks:gw",
        sensed_object_id=object_id,
        machine_condition_id="mc:oil-contamination",
        severity=0.95,
        belief=0.9,
        timestamp=timestamp,
        dc_id="dc:gw",
    )


def test_kept_curve_text_follows_a_reset_pair(workload):
    """A pair reset after maintenance and fed one new report with other
    probabilities renders the new ones, not the text kept for the old
    report."""
    from repro.oosm.model import ShipModel
    from repro.pdme.shard import ShardedPdme
    from repro.protocol.canonical import canonical_dumps
    from repro.protocol.prognostic import PrognosticVector

    reports, _ = workload
    pdme = ShardedPdme(1)
    engine = pdme.workers[0].engine
    gw = FleetGateway(ShipModel(), pdme, metrics=MetricsRegistry())

    def single(t, probabilities):
        return reports[0].__class__(
            knowledge_source_id="ks:gw",
            sensed_object_id="obj:m0",
            machine_condition_id="mc:oil-contamination",
            severity=0.4,
            belief=0.0,
            timestamp=t,
            prognostic=PrognosticVector.from_pairs(
                list(zip((3600.0, 7200.0, 86400.0), probabilities))
            ),
        )

    pdme.submit(single(100.0, (0.1, 0.2, 0.3)))
    assert gw.fleet_health_json() == canonical_dumps(pdme.fused_snapshot())
    engine.prognostic.reset("obj:m0", "mc:oil-contamination")
    pdme.submit(single(160.0, (0.4, 0.5, 0.6)))
    assert gw.fleet_health_json() == canonical_dumps(pdme.fused_snapshot())
    assert '"curve"' in gw.fleet_health_json() and "0.5" in gw.fleet_health_json()
