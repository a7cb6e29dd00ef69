"""Workload ``serve``: gateway reads beside writes, open loop on both sides.

``gateway_for_sharded`` over two file-backed shards and 64 objects,
preloaded with 100 reports.  The main thread posts ``WRITE_SIZE``
reports every ``WRITE_PERIOD_S`` through ``post_reports``; one reader
thread issues ``QUERY_RATE_HZ`` queries per second (50 % ``health_json``,
20 % ``alarms_json``, 20 % a ``reports`` page walk, 10 %
``fleet_health_json``).  Every write bumps the intake watermark, so the
first fused query after it re-fuses the snapshot (the miss path, whose
cost grows with the report history) and the fleet query after that
re-serializes it: the tail measures those two, the median the
per-object health slice.
"""

from __future__ import annotations

import threading
import traceback
from pathlib import Path
from types import SimpleNamespace
from typing import Any

from benchmarks.e2e.common import latency_metrics, rate_metric, sha256_text, synthetic_reports, wall
from benchmarks.e2e.instrument import instrument_sharded_pdme
from benchmarks.e2e.metrics import counter_deltas
from benchmarks.e2e.pacer import OpenLoop
from benchmarks.e2e.spans import Tracer

OBJECTS = 64
SHARDS = 2
#: The history is kept small enough that a re-fusion (10-14 ms here over
#: 100-200 reports, growing with the history) ends before the next query
#: is due, even when the host runs slow.  A longer one makes the next
#: queries queue behind it, and how many queue moves with the host's
#: speed: from a 200-report preload a slow host's re-fusions reached
#: 29 ms and the median query swung by half its value between runs.
PRELOAD = 100
QUERY_RATE_HZ = 50.0
#: Ten queries per write, so the re-fusions are a tenth of all queries
#: and p95 falls inside them rather than on their edge.
WRITE_PERIOD_S = 0.2
WRITE_SIZE = 1
#: Writes fall due half a query interval after a query (in periods).
WRITE_OFFSET = 0.5 / (QUERY_RATE_HZ * WRITE_PERIOD_S)
PAGE = 50
ALARM_THRESHOLD = 0.5
#: The reader cycles through this pattern: 50 % health, 20 % alarms,
#: 20 % report pages, 10 % fleet health (the seed picks the objects).
#: Which query first meets a write decides whether the snapshot rebuild
#: and the fleet document's serialization land in one request or two,
#: and moved the tail by 60 % between seeds; a fixed interleaving, with
#: writes due half a query interval after a query, gives every write
#: interval the same sequence.
PATTERN = (
    "health", "alarms", "health", "reports", "health",
    "fleet", "health", "alarms", "health", "reports",
)
SMOKE_SECONDS = 2.0
#: How long past its schedule the reader may run before the run fails.
READER_GRACE_S = 60.0


def sizes(seconds: float, smoke: bool) -> dict[str, Any]:
    duration = SMOKE_SECONDS if smoke else seconds
    return {
        "objects": OBJECTS,
        "shards": SHARDS,
        "preload_reports": PRELOAD,
        "queries": int(duration * QUERY_RATE_HZ),
        "query_rate_hz": QUERY_RATE_HZ,
        "writes": int(duration / WRITE_PERIOD_S),
        "write_period_s": WRITE_PERIOD_S,
        "reports_per_write": WRITE_SIZE,
        "mix": {kind: PATTERN.count(kind) / len(PATTERN) for kind in sorted(set(PATTERN))},
    }


def instrument_gateway(tracer: Tracer, gateway: Any) -> None:
    import repro.gateway.service as service

    tracer.patch(gateway, "fleet_health_json", "gateway.fleet_health", root=True)
    tracer.patch(gateway, "health_json", "gateway.health", root=True)
    tracer.patch(gateway, "alarms_json", "gateway.alarms", root=True)
    tracer.patch(gateway, "reports", "gateway.reports", root=True)
    tracer.patch(gateway, "post_reports", "gateway.post_reports", root=True)
    tracer.patch(gateway.replica, "page_after", "gateway.replica")
    tracer.patch(service, "canonical_dumps", "protocol.canonical")
    tracer.patch(service, "decode_report", "protocol.decode")


def prepare(seed: int, sizes: dict[str, Any], tracer: Tracer | None, workdir: Path) -> Any:
    from repro.common.rng import derive_rng, make_rng
    from repro.gateway.service import gateway_for_sharded
    from repro.obs.registry import MetricsRegistry
    from repro.oosm.model import ShipModel
    from repro.system import build_sharded_pdme

    preload = sizes["preload_reports"]
    t_inputs = wall()
    root = make_rng(seed)
    stream = list(synthetic_reports(
        derive_rng(root, "reports"), preload + sizes["writes"] * WRITE_SIZE, OBJECTS
    ))
    objects = derive_rng(root, "queries").integers(0, OBJECTS, size=sizes["queries"])
    schedule = [
        (PATTERN[k % len(PATTERN)], f"obj:m{int(o)}") for k, o in enumerate(objects)
    ]
    inputs_s = wall() - t_inputs

    registry = MetricsRegistry()
    pdme = build_sharded_pdme(SHARDS, store_dir=str(workdir / "serve-shards"))
    model = ShipModel()
    for i in range(OBJECTS):
        model.create("rotating-machine", id=f"obj:m{i}", name=f"machine {i}")
    if tracer is not None:
        instrument_sharded_pdme(tracer, pdme)
    t_preload = wall()
    pdme.submit_batch([r for _, r in stream[:preload]], [rid for rid, _ in stream[:preload]])
    preload_s = wall() - t_preload
    gateway = gateway_for_sharded(model, pdme, metrics=registry)
    state = SimpleNamespace(
        pdme=pdme,
        gateway=gateway,
        registry=registry,
        stream=stream,
        preload=preload,
        schedule=schedule,
        writes=sizes["writes"],
        tracer=tracer,
        inputs_s=inputs_s,
        excluded_s=inputs_s + preload_s,
    )
    if tracer is not None:
        instrument_gateway(tracer, gateway)
        state.query = tracer.wrap("bench.harness", _query, root=True)
        state.write = tracer.wrap("bench.harness", _write, root=True)
    else:
        state.query, state.write = _query, _write
    cursor = None
    for kind in PATTERN:
        cursor = _query(state, kind, "obj:m0", cursor)
    return state


def _query(state: Any, kind: str, obj: str, cursor: str | None) -> str | None:
    """Issue one query; returns the page-walk cursor for the next ``reports``."""
    gateway = state.gateway
    if kind == "health":
        gateway.health_json(obj)
    elif kind == "alarms":
        gateway.alarms_json(ALARM_THRESHOLD)
    elif kind == "fleet":
        gateway.fleet_health_json()
    else:
        return gateway.reports(cursor, PAGE).next_cursor
    return cursor


def _write(state: Any, chunk: list[tuple[str, Any]]) -> int:
    return state.gateway.post_reports([r for _, r in chunk], [rid for rid, _ in chunk])


def measure(state: Any) -> None:
    tracer = state.tracer
    reader = OpenLoop(1.0 / QUERY_RATE_HZ)
    writer = OpenLoop(WRITE_PERIOD_S)
    queries: list[tuple[float, float]] = []
    writes: list[tuple[float, float]] = []
    errors: list[str] = []
    written: list[str] = []
    stop = threading.Event()

    def read() -> None:
        cursor = None
        for k, (kind, obj) in enumerate(state.schedule):
            if stop.is_set():
                errors.append("reader stopped before finishing its schedule")
                return
            due = reader.wait(k)
            t = wall()
            try:
                cursor = state.query(state, kind, obj, cursor)
            except Exception:  # noqa: BLE001 - a failed query is counted, not fatal
                errors.append(traceback.format_exc())
            end = wall()
            queries.append((end - due, end - t))

    before = state.registry.snapshot()
    if tracer is not None:
        tracer.active = True
    writer.t0 = reader.start()
    thread = threading.Thread(target=read, name="serve-reader")
    thread.start()
    try:
        for w in range(state.writes):
            lo = state.preload + w * WRITE_SIZE
            chunk = state.stream[lo:lo + WRITE_SIZE]
            due = writer.wait(w + 1 + WRITE_OFFSET)
            t = wall()
            try:
                state.write(state, chunk)
                written.extend(rid for rid, _ in chunk)
            except Exception:  # noqa: BLE001 - a failed write is counted, not fatal
                errors.append(traceback.format_exc())
            end = wall()
            writes.append((end - due, end - t))
        thread.join(timeout=len(state.schedule) / QUERY_RATE_HZ + READER_GRACE_S)
    finally:
        stop.set()
        thread.join(timeout=READER_GRACE_S)
    if thread.is_alive():
        raise RuntimeError("serve reader thread did not stop")
    if tracer is not None:
        tracer.active = False
    state.window = SimpleNamespace(
        reader=reader, writer=writer, queries=queries, writes=writes,
        errors=errors, written=written, before=before, after=state.registry.snapshot(),
    )


def finish(state: Any) -> dict[str, Any]:
    w, gateway, pdme = state.window, state.gateway, state.pdme
    cached = gateway.fleet_health_json()
    oracle = gateway.fleet_health_json(use_cache=False)
    seen: list[str] = []
    cursor = None
    while True:
        page = gateway.reports(cursor, 1000)
        seen.extend(item.report_id for item in page.items)
        cursor = page.next_cursor
        if cursor is None:
            break
    expected = [rid for rid, _ in state.stream[:state.preload]] + w.written
    deltas = counter_deltas(w.before, w.after)
    lookups = deltas.get("gateway.cache.hits", 0.0) + deltas.get("gateway.cache.misses", 0.0)
    rows = [worker.report_count for worker in pdme.workers]
    store_mb = sum(
        f.stat().st_size
        for path in pdme.partition_paths()
        for f in Path(path).parent.glob(Path(path).name + "*")
    ) / 1e6
    counts = {
        "gateway.cache.hit_ratio": deltas.get("gateway.cache.hits", 0.0) / lookups if lookups else 0.0,
        "gateway.snapshot.mb": len(cached) / 1e6,
        "gateway.write.wait_s": w.writer.lag_total,
        "pdme.shard.skew": max(rows) / (sum(rows) / len(rows)),
        "pdme.duplicates": float(pdme.duplicates_dropped),
        "oosm.store.rows": float(sum(rows)),
        "oosm.store.file_mb": store_mb,
        "bench.inputs_s": state.inputs_s,
        "bench.lag_max_ms": max(w.reader.lag_max, w.writer.lag_max) * 1000.0,
    }
    checks = {
        "cached_fleet_health_equals_uncached": cached == oracle,
        "keyset_drain_sees_every_report_once_in_order": seen == expected,
        "no_failed_queries_or_writes": not w.errors,
    }
    pdme.close()
    return {
        "metrics": {
            **latency_metrics("query", [lat for lat, _ in w.queries]),
            **latency_metrics("write", [lat for lat, _ in w.writes], quantiles=(95,)),
            "queries_per_busy_s": rate_metric(
                [1.0] * len(w.queries), [s for _, s in w.queries], "queries/s"
            ),
        },
        "checks": checks,
        "attempted": len(w.queries) + len(w.writes),
        "failed": len(w.errors),
        "errors": w.errors[:3],
        "digest": sha256_text(oracle),
        "busy_s": sum(s for _, s in w.queries) + sum(s for _, s in w.writes),
        "counts": counts,
    }
