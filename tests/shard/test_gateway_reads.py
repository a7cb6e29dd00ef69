"""Gateway reads over the sharded router, interleaved with writes.

A health read asks only the owning shards for one object's part-of
closure, the alarm list reads diagnostic state alone, and the fleet
document re-renders only the entries a write changed.  Each answer must
equal what the full fused model gives: the object's slice of it, the
alarms read off it, and ``canonical_dumps`` of all of it.  The model
the answers are held to comes from a fresh single engine replaying the
same stream, so no memo is shared with the router under test.
"""

from __future__ import annotations

import itertools
import sys
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import MprosError
from repro.fusion.engine import KnowledgeFusionEngine
from repro.fusion.groups import default_chiller_groups
from repro.gateway import gateway_for_sharded
from repro.gateway.resources import Alarm
from repro.obs.registry import MetricsRegistry
from repro.oosm.model import ShipModel
from repro.pdme.demo import demo_reports
from repro.pdme.shard import ShardedPdme
from repro.protocol.canonical import canonical_dumps, report_to_dict

pytestmark = pytest.mark.shard

THRESHOLDS = (0.1, 0.5, 0.6)


@pytest.fixture(scope="module")
def stream():
    """The quick ingest workload in timestamp order, so ``as_of``
    moves with nearly every write."""
    reports, ids = demo_reports(quick=True)
    order = sorted(range(len(reports)), key=lambda i: (reports[i].timestamp, i))
    return [reports[i] for i in order], [ids[i] for i in order]


def _model(reports) -> ShipModel:
    """Every sensed object, plus a system of three of them inside a
    ship, and an object with no reports."""
    model = ShipModel()
    objects = sorted({r.sensed_object_id for r in reports})
    for oid in objects:
        model.create("rotating-machine", id=oid, name=oid)
    model.create("rotating-machine", id="obj:ship", name="ship")
    model.create("rotating-machine", id="obj:system", name="system")
    model.create("rotating-machine", id="obj:idle", name="idle")
    model.relate("obj:system", "part-of", "obj:ship")
    for oid in objects[:3]:
        model.relate(oid, "part-of", "obj:system")
    model.relate(objects[3], "part-of", "obj:ship")
    return model


def _router(tmp_path, n_shards) -> ShardedPdme:
    return ShardedPdme(
        n_shards,
        store_paths=[tmp_path / f"shard-{i}.sqlite" for i in range(n_shards)],
    )


def _oracle_snapshot(reports, as_of) -> dict:
    engine = KnowledgeFusionEngine(default_chiller_groups())
    engine.ingest_batch(list(reports))
    return engine.fused_snapshot(as_of=as_of)


def health_from(snap, model, object_id) -> dict:
    """The health document as a slice of the full fused snapshot."""
    scope = {object_id} | model.parts_closure_ids(object_id)
    return {
        "object": object_id,
        "as_of": snap["as_of"],
        "diagnostic": {
            k: v for k, v in snap["diagnostic"].items()
            if k.split("|", 1)[0] in scope
        },
        "prognostic": {
            k: v for k, v in snap["prognostic"].items()
            if k.split("|", 1)[0] in scope
        },
    }


def alarms_from(snap, threshold) -> dict:
    """The alarm document as read off the full fused snapshot."""
    raised = []
    for series_key in sorted(snap["diagnostic"]):
        state = snap["diagnostic"][series_key]
        if state["severity"] < threshold:
            continue
        obj, group = series_key.split("|", 1)
        beliefs = state["beliefs"]
        top = max(sorted(beliefs), key=lambda c: beliefs[c])
        raised.append(Alarm(
            object_id=obj, group=group, condition_id=top,
            severity=state["severity"], belief=beliefs[top], status="ACTIVE",
        ).to_json())
    return {"alarms": raised}


def _assert_reads_match(gw, model, snap, probes) -> None:
    for obj in probes:
        want = health_from(snap, model, obj)
        assert gw.health(obj) == want, obj
        assert gw.health_json(obj) == canonical_dumps(want), obj
    for threshold in THRESHOLDS:
        assert gw.alarms_json(threshold) == canonical_dumps(
            alarms_from(snap, threshold)
        )
    fleet = canonical_dumps(snap)
    assert gw.fleet_health_json() == fleet
    assert gw.fleet_health_json(use_cache=False) == fleet


def test_interleaved_reads_equal_the_full_snapshot(tmp_path, stream, n_shards):
    reports, ids = stream
    model = _model(reports)
    pdme = _router(tmp_path, n_shards)
    try:
        gw = gateway_for_sharded(model, pdme, metrics=MetricsRegistry())
        objects = sorted({r.sensed_object_id for r in reports})
        probes = objects[:5] + ["obj:system", "obj:ship", "obj:idle"]
        pos = len(reports) // 2
        pdme.submit_batch(reports[:pos], ids[:pos])
        for size in itertools.islice(itertools.cycle((1, 3, 1, 7, 16)), 14):
            if pos >= len(reports):
                break
            gw.post_reports(reports[pos:pos + size], ids[pos:pos + size])
            pos += size
            snap = _oracle_snapshot(reports[:pos], pdme.as_of)
            # Twice: the second round is served from the caches.
            _assert_reads_match(gw, model, snap, probes)
            _assert_reads_match(gw, model, snap, probes)
    finally:
        pdme.close()


def test_health_reads_ask_only_the_owning_shards(tmp_path, stream, n_shards):
    reports, ids = stream
    model = _model(reports)
    pdme = _router(tmp_path, n_shards)
    try:
        pdme.submit_batch(reports, ids)
        gw = gateway_for_sharded(model, pdme, metrics=MetricsRegistry())
        asked: list[int] = []
        for worker in pdme.workers:
            real = worker.fused_snapshot

            def counted(*args, _real=real, _id=worker.shard_id, **kwargs):
                asked.append(_id)
                return _real(*args, **kwargs)

            worker.fused_snapshot = counted
        obj = sorted({r.sensed_object_id for r in reports})[4]
        gw.health_json(obj)
        assert asked == [pdme.layout.shard_of(obj)]
    finally:
        pdme.close()


def test_read_inside_a_shard_write_never_pins_pre_write_state(tmp_path, stream):
    """A read landing while a shard persists a write (the store commit
    releases the GIL) must not cache the pre-write document under the
    post-write key."""
    reports, ids = stream
    model = _model(reports)
    pdme = _router(tmp_path, 2)
    try:
        pdme.submit_batch(reports[:-1], ids[:-1])
        gw = gateway_for_sharded(model, pdme, metrics=MetricsRegistry())
        last = reports[-1]
        obj = last.sensed_object_id
        worker = pdme.workers[pdme.layout.shard_of(obj)]
        real = worker.store.ingest_batch
        seen: list[str] = []

        def ingest_with_a_read(*args, **kwargs):
            seen.append(gw.fleet_health_json())
            gw.health_json(obj)
            gw.alarms_json(0.1)
            return real(*args, **kwargs)

        worker.store.ingest_batch = ingest_with_a_read
        try:
            assert gw.post_reports([last], [ids[-1]]) == 1
        finally:
            worker.store.ingest_batch = real
        assert seen  # the read ran inside the write
        snap = _oracle_snapshot(reports, pdme.as_of)
        assert gw.fleet_health_json() != seen[0]
        _assert_reads_match(gw, model, snap, [obj, "obj:ship"])
    finally:
        pdme.close()


def test_concurrent_readers_and_a_writer_end_on_the_oracle(tmp_path, stream):
    """More reader threads than cores share the engines and the
    gateway's rendered entries with a writer; once the writer
    stops, every read equals the fresh replay."""
    reports, ids = stream
    model = _model(reports)
    pdme = _router(tmp_path, 2)
    pos = len(reports) // 2
    pdme.submit_batch(reports[:pos], ids[:pos])
    gw = gateway_for_sharded(model, pdme, metrics=MetricsRegistry())
    objects = sorted({r.sensed_object_id for r in reports})
    stop = threading.Event()
    errors: list[BaseException] = []

    def read(k: int) -> None:
        try:
            while not stop.is_set():
                gw.fleet_health_json()
                gw.health_json(objects[k % len(objects)])
                gw.health_json("obj:system")
                gw.alarms_json(0.1)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    readers = [threading.Thread(target=read, args=(k,)) for k in range(4)]
    try:
        for t in readers:
            t.start()
        for lo in range(pos, len(reports), 5):
            gw.post_reports(reports[lo:lo + 5], ids[lo:lo + 5])
    finally:
        stop.set()
        for t in readers:
            t.join(timeout=30)
        sys.setswitchinterval(interval)
    try:
        assert not any(t.is_alive() for t in readers)
        assert not errors, errors
        snap = _oracle_snapshot(reports, pdme.as_of)
        _assert_reads_match(gw, model, snap, objects[:3] + ["obj:system", "obj:ship"])
    finally:
        pdme.close()


def test_fused_reads_with_a_shard_down(tmp_path, stream, n_shards):
    """A crashed shard fails every fused read that has to consult it:
    the alarm list and the fleet document, which read every shard, and
    the health of an object it owns.  The health of an object owned by
    a running shard still answers.  A response cached at the current
    version is still served (the crash changed no fused state), and a
    restart restores every read."""
    reports, ids = stream
    model = _model(reports)
    pdme = _router(tmp_path, n_shards)
    try:
        pdme.submit_batch(reports, ids)
        warm = gateway_for_sharded(model, pdme, metrics=MetricsRegistry())
        cold = gateway_for_sharded(model, pdme, metrics=MetricsRegistry())
        objects = sorted({r.sensed_object_id for r in reports})
        cached = (
            warm.fleet_health_json(),
            warm.health_json(objects[0]),
            warm.alarms_json(0.5),
        )
        down = pdme.workers[pdme.layout.shard_of(objects[1])]
        down.crash()
        live = [o for o in objects if pdme.layout.shard_of(o) != down.shard_id]
        reads = [
            lambda: cold.health_json(objects[1]),
            lambda: cold.health(objects[1]),
            lambda: cold.alarms_json(0.5),
            lambda: cold.alarms(0.1),
            lambda: cold.fleet_health_json(),
            lambda: cold.fleet_health(),
            lambda: warm.fleet_health_json(use_cache=False),
        ]
        for read in reads:
            with pytest.raises(MprosError):
                read()
        snap = _oracle_snapshot(reports, pdme.as_of)
        assert bool(live) == (n_shards > 1)
        for obj in live[:3]:
            want = health_from(snap, model, obj)
            assert cold.health(obj) == want, obj
            assert cold.health_json(obj) == canonical_dumps(want), obj
        assert (
            warm.fleet_health_json(),
            warm.health_json(objects[0]),
            warm.alarms_json(0.5),
        ) == cached
        down.restart()
        for gw in (warm, cold):
            _assert_reads_match(gw, model, snap, objects[:2] + ["obj:system"])
    finally:
        pdme.close()


@pytest.mark.parametrize("shards", [1, 2], ids=["shards1", "shards2"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_property_every_read_equals_its_uncached_oracle(stream, shards, data):
    """Writes of 1-3 reports, drawn anywhere from the rest of the
    stream so some are older than ``as_of``, interleave with fleet,
    alarm, health and cursor-walked page reads.  Each response equals
    its oracle from a fresh replay of the writes so far, byte for byte:
    the kept texts and decoded rows never leak a stale part."""
    reports, ids = stream
    model = _model(reports)
    objects = sorted({r.sensed_object_id for r in reports})
    probes = objects[:4] + ["obj:system", "obj:idle"]
    # Reports far ahead of the stream move as_of past every knot of
    # some single-report curves, which then lose knots to the clamp.
    jumps = [replace(reports[0], timestamp=t) for t in (9_000.0, 40_000.0, 120_000.0)]
    reports = reports + jumps
    ids = ids + [f"jump#{k}" for k in range(len(jumps))]
    with tempfile.TemporaryDirectory() as tmp:
        pdme = _router(Path(tmp), shards)
        try:
            gw = gateway_for_sharded(model, pdme, metrics=MetricsRegistry())
            written = list(range(40))
            pdme.submit_batch([reports[i] for i in written], [ids[i] for i in written])
            rest = list(range(40, len(reports) - len(jumps)))
            ahead = list(range(len(reports) - len(jumps), len(reports)))
            walked, cursor = 0, None
            for _ in range(data.draw(st.integers(4, 14), label="steps")):
                op = data.draw(st.sampled_from(
                    ("write", "write", "jump", "fleet", "alarms", "health", "page")
                ), label="op")
                if op == "jump" and ahead:
                    batch = [ahead.pop(0)]
                    assert gw.post_reports([reports[batch[0]]], [ids[batch[0]]]) == 1
                    written += batch
                    continue
                if op in ("write", "jump") and rest:
                    k = data.draw(st.integers(1, min(3, len(rest))), label="size")
                    picks = sorted(data.draw(st.lists(
                        st.integers(0, len(rest) - 1), min_size=k, max_size=k, unique=True
                    ), label="picks"), reverse=True)
                    batch = [rest.pop(j) for j in picks]
                    assert gw.post_reports(
                        [reports[i] for i in batch], [ids[i] for i in batch]
                    ) == len(batch)
                    written += batch
                    continue
                snap = _oracle_snapshot([reports[i] for i in written], pdme.as_of)
                if op == "fleet":
                    assert gw.fleet_health_json() == canonical_dumps(snap)
                elif op == "alarms":
                    threshold = data.draw(st.sampled_from(THRESHOLDS), label="threshold")
                    assert gw.alarms_json(threshold) == canonical_dumps(
                        alarms_from(snap, threshold)
                    )
                elif op == "health":
                    obj = data.draw(st.sampled_from(probes), label="object")
                    assert gw.health_json(obj) == canonical_dumps(
                        health_from(snap, model, obj)
                    )
                else:
                    limit = data.draw(st.integers(1, 25), label="limit")
                    page = gw.reports(cursor, limit)
                    want = written[walked:walked + limit]
                    assert [item.report_id for item in page.items] == [ids[i] for i in want]
                    assert canonical_dumps(
                        [report_to_dict(item.report) for item in page.items]
                    ) == canonical_dumps([report_to_dict(reports[i]) for i in want])
                    walked += len(page.items)
                    cursor = page.next_cursor
                    if cursor is None:
                        walked = 0
        finally:
            pdme.close()
