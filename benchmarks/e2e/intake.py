"""Workload ``intake``: PDME catch-up after an outage, closed loop.

Pre-encoded wire payloads (``encode_report``) over 512 objects and all
16 chiller conditions, with monotone timestamps; about 5 % are uplink
retransmissions that reuse an earlier ``report_id``.  Each batch of 64
payloads is decoded and handed to ``ShardedPdme.submit_batch`` on two
file-backed shards.  ``protocol`` decode, ``pdme.shard``, ``fusion``
and ``oosm.persistence`` do nearly all the work; the DC layers do none.
"""

from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace
from typing import Any

from benchmarks.e2e.common import latency_metrics, rate_metric, sha256_text, synthetic_reports, wall
from benchmarks.e2e.instrument import instrument_sharded_pdme
from benchmarks.e2e.spans import Tracer

BATCH = 64
OBJECTS = 512
SHARDS = 2
RETRANSMIT_SHARE = 0.05
#: A retransmission repeats one of this many most recent payloads.
RETRANSMIT_WINDOW = 256
#: Payloads per requested second: 64,000 at 20 s.  The loop runs about
#: twice this fast here, so it measures about half the requested time;
#: the rest of the run goes to generating the inputs and to the post-run
#: oracle, a full re-fusion of everything ingested.
PAYLOADS_PER_S = 3200
WARMUP_BATCHES = 10
SMOKE_BATCHES = 20


def sizes(seconds: float, smoke: bool) -> dict[str, Any]:
    batches = SMOKE_BATCHES if smoke else int(seconds * PAYLOADS_PER_S) // BATCH
    return {
        "payloads": batches * BATCH,
        "batch": BATCH,
        "warmup_batches": WARMUP_BATCHES,
        "objects": OBJECTS,
        "shards": SHARDS,
        "retransmit_share": RETRANSMIT_SHARE,
    }


def make_payloads(seed: int, total: int) -> list[dict[str, Any]]:
    """``total`` wire payloads, about ``RETRANSMIT_SHARE`` of them repeats."""
    from repro.common.rng import derive_rng, make_rng
    from repro.protocol.wire import encode_report

    root = make_rng(seed)
    pick = derive_rng(root, "retransmit")
    repeat = pick.random(total) < RETRANSMIT_SHARE
    repeat[0] = False
    n_unique = int((~repeat).sum())
    fresh = synthetic_reports(derive_rng(root, "reports"), n_unique, OBJECTS)
    payloads: list[dict[str, Any]] = []
    unique: list[dict[str, Any]] = []
    for again in repeat:
        if again:
            recent = unique[-RETRANSMIT_WINDOW:]
            payloads.append(recent[int(pick.integers(0, len(recent)))])
            continue
        report_id, report = next(fresh)
        payload = encode_report(report)
        payload["report_id"] = report_id
        unique.append(payload)
        payloads.append(payload)
    return payloads


def prepare(seed: int, sizes: dict[str, Any], tracer: Tracer | None, workdir: Path) -> Any:
    from repro.protocol.wire import decode_report
    from repro.system import build_sharded_pdme

    t_inputs = wall()
    payloads = make_payloads(seed, sizes["payloads"] + WARMUP_BATCHES * BATCH)
    inputs_s = wall() - t_inputs
    pdme = build_sharded_pdme(SHARDS, store_dir=str(workdir / "intake-shards"))
    decode = decode_report
    state = SimpleNamespace(
        pdme=pdme,
        payloads=payloads,
        refused=[],
        tracer=tracer,
        inputs_s=inputs_s,
        excluded_s=inputs_s,
    )
    if tracer is not None:
        instrument_sharded_pdme(tracer, pdme)
        decode = tracer.wrap("protocol.decode", decode_report)
        state.batch = tracer.wrap("bench.harness", _batch, root=True)
    else:
        state.batch = _batch
    state.decode = decode
    for b in range(WARMUP_BATCHES):
        state.batch(state, payloads[b * BATCH:(b + 1) * BATCH])
    return state


def _batch(state: Any, chunk: list[dict[str, Any]]) -> int:
    from repro.common.errors import MprosError

    reports, ids = [], []
    for payload in chunk:
        try:
            reports.append(state.decode(payload))
        except MprosError as exc:
            state.refused.append(repr(exc))
            continue
        ids.append(payload["report_id"])
    return state.pdme.submit_batch(reports, ids)


def measure(state: Any) -> None:
    tracer = state.tracer
    times = []
    written = []
    if tracer is not None:
        tracer.active = True
    for lo in range(WARMUP_BATCHES * BATCH, len(state.payloads), BATCH):
        t = wall()
        written.append(state.batch(state, state.payloads[lo:lo + BATCH]))
        times.append(wall() - t)
    if tracer is not None:
        tracer.active = False
    state.window = SimpleNamespace(times=times, written=written)


def finish(state: Any) -> dict[str, Any]:
    from repro.pdme.shard import parallel_shard_ingest
    from repro.protocol.canonical import canonical_dumps
    from repro.protocol.wire import decode_report

    w, pdme = state.window, state.pdme
    fused = pdme.canonical_fused_json()
    rows = [worker.report_count for worker in pdme.workers]
    duplicates = pdme.duplicates_dropped
    store_mb = sum(
        f.stat().st_size
        for path in pdme.partition_paths()
        for f in Path(path).parent.glob(Path(path).name + "*")
    ) / 1e6
    pdme.close()
    # The unsharded oracle, computed outside the timed window.  The
    # measured shards and the payloads are released first to keep the
    # peak footprint down.
    state.pdme = pdme = None
    ingested, state.payloads = state.payloads, None
    unique: dict[str, Any] = {}
    for payload in ingested:
        unique.setdefault(payload["report_id"], payload)
    retransmits = len(ingested) - len(unique)
    ids = list(unique)
    reports = [decode_report(unique.pop(rid)) for rid in ids]
    oracle = canonical_dumps(parallel_shard_ingest(reports, ids, n_shards=1))
    return {
        "metrics": {
            "reports_per_s": rate_metric(w.written, w.times, "reports/s"),
            **latency_metrics("batch", w.times),
        },
        "checks": {
            "fused_state_equals_unsharded_oracle": fused == oracle,
            "report_count_equals_unique_ids": sum(rows) == len(ids),
            "duplicates_dropped_equals_retransmissions": duplicates == retransmits,
        },
        "attempted": len(ingested),
        "failed": len(state.refused),
        "digest": sha256_text(fused),
        "busy_s": sum(w.times),
        "counts": {
            "pdme.shard.skew": max(rows) / (sum(rows) / len(rows)),
            "pdme.duplicates": float(duplicates),
            "pdme.refused": float(len(state.refused)),
            "oosm.store.rows": float(sum(rows)),
            "oosm.store.file_mb": store_mb,
            "bench.inputs_s": state.inputs_s,
        },
    }
