"""Cross-shard exactly-once: crash/restart and rebalance drills.

Extends the DC-side recovery discipline (``tests/dc/test_recovery.py``)
to the PDME side: a shard worker's fused state is volatile, its
partition log is durable, and report-id dedup cursors must survive
worker crashes *and* partition-layout changes.  At-least-once delivery
plus durable ids equals exactly-once fusion — through any sequence of
crashes, restarts, and rebalances.
"""

from __future__ import annotations

import pytest

from repro.common.errors import MprosError
from repro.fusion.engine import KnowledgeFusionEngine
from repro.fusion.groups import default_chiller_groups
from repro.pdme.demo import demo_reports
from repro.pdme.shard import ShardedPdme
from repro.protocol.canonical import canonical_dumps

pytestmark = pytest.mark.shard


@pytest.fixture(scope="module")
def workload():
    return demo_reports(quick=True)


@pytest.fixture(scope="module")
def oracle_json(workload):
    reports, _ = workload
    engine = KnowledgeFusionEngine(default_chiller_groups())
    engine.ingest_batch(list(reports))
    as_of = max(r.timestamp for r in reports)
    return canonical_dumps(engine.fused_snapshot(as_of=as_of))


def file_backed(tmp_path, n):
    return ShardedPdme(
        n, store_paths=[tmp_path / f"shard-{i}.sqlite" for i in range(n)]
    )


def test_crashed_worker_refuses_intake_until_restart(tmp_path, workload):
    reports, ids = workload
    pdme = file_backed(tmp_path, 2)
    pdme.workers[0].crash()
    with pytest.raises(MprosError):
        pdme.submit_batch(reports[:10], ids[:10])
    pdme.workers[0].restart()
    assert pdme.submit_batch(reports[:10], ids[:10]) == 10
    pdme.close()


def test_crash_restart_replays_partition_and_keeps_dedup(
    tmp_path, workload, oracle_json
):
    """The strictest DC-recovery case on the PDME side: a batch lands
    durably, the worker dies before the sender's ack, and the sender
    replays.  The restart rebuilds fused state from the log and the
    replay is absorbed by the reloaded id cursors."""
    reports, ids = workload
    half = len(reports) // 2
    pdme = file_backed(tmp_path, 2)
    assert pdme.submit_batch(reports[:half], ids[:half]) == half
    victim = pdme.workers[0]
    persisted = victim.report_count
    victim.crash()
    replayed = victim.restart()
    assert replayed == persisted          # fused state rebuilt from the log
    # At-least-once: the sender re-delivers everything, then the tail.
    written = pdme.submit_batch(reports, ids)
    assert written == len(reports) - half
    assert pdme.report_count == len(reports)
    assert pdme.duplicates_dropped == half
    assert pdme.canonical_fused_json() == oracle_json


def test_dedup_holds_across_the_rebalanced_partition(
    tmp_path, workload, oracle_json
):
    """Report-id cursors migrate with their rows: ids delivered before
    a rebalance are still duplicates *after* it, on whichever shard now
    owns the object — even when a worker crashed mid-stream."""
    reports, ids = workload
    third = len(reports) // 3
    pdme = file_backed(tmp_path, 2)
    assert pdme.submit_batch(reports[:third], ids[:third]) == third

    # Mid-stream crash + restart of one worker.
    pdme.workers[1].crash()
    pdme.workers[1].restart()

    # Repartition 2 -> 4 under load.
    stats = pdme.rebalance(
        4, store_paths=[tmp_path / f"re-{i}.sqlite" for i in range(4)]
    )
    assert stats == {
        "from": 2, "to": 4, "total": third, "moved": stats["moved"]
    }
    assert 0 <= stats["moved"] <= third

    # The sender, unaware of any of it, replays from the start.
    written = pdme.submit_batch(reports, ids)
    assert written == len(reports) - third
    assert pdme.report_count == len(reports)
    assert pdme.duplicates_dropped == third
    assert pdme.canonical_fused_json() == oracle_json
    pdme.close()


def test_rebalance_preserves_bytes_and_counts(workload, oracle_json, n_shards):
    reports, ids = workload
    pdme = ShardedPdme(n_shards)
    pdme.submit_batch(reports, ids)
    for target in (n_shards + 1, max(1, n_shards - 1), n_shards):
        stats = pdme.rebalance(target)
        assert stats["total"] == len(reports)
        assert pdme.report_count == len(reports)
        assert pdme.canonical_fused_json() == oracle_json
    # Exactly-once across the whole migration chain.
    assert pdme.submit_batch(reports, ids) == 0
    assert pdme.report_count == len(reports)
    pdme.close()


def test_rebalance_growth_moves_rows_only_to_new_shards(workload):
    """The store-level form of layout minimality: growing N -> N+1
    leaves every surviving shard's partition a subset of what it held."""
    reports, ids = workload
    pdme = ShardedPdme(2)
    pdme.submit_batch(reports, ids)
    before = [
        {rid for _, rid, _ in w.store.rows()} for w in pdme.workers
    ]
    pdme.rebalance(3)
    after = [
        {rid for _, rid, _ in w.store.rows()} for w in pdme.workers
    ]
    assert after[0] <= before[0]
    assert after[1] <= before[1]
    assert after[2] == (before[0] - after[0]) | (before[1] - after[1])
    pdme.close()


def test_memory_partition_restart_is_honestly_empty(workload):
    """A ``:memory:`` partition has no durable log: restart yields an
    empty shard, not silently resurrected state."""
    reports, ids = workload
    pdme = ShardedPdme(2)
    pdme.submit_batch(reports, ids)
    w = pdme.workers[0]
    had = w.report_count
    assert had > 0
    w.crash()
    assert w.restart() == 0
    assert w.report_count == 0
    pdme.close()


def test_router_validates_geometry_and_id_lengths(workload):
    reports, ids = workload
    with pytest.raises(MprosError):
        ShardedPdme(2, store_paths=[":memory:"])
    pdme = ShardedPdme(2)
    with pytest.raises(MprosError):
        pdme.submit_batch(reports[:5], ids[:4])
    with pytest.raises(MprosError):
        pdme.rebalance(3, store_paths=[":memory:"])
    pdme.close()


@pytest.mark.parametrize("bad_id", [["not", "an", "id"], 7, 1.5, b"dc:0#1"])
def test_router_refuses_a_non_string_id_before_publishing_anything(
    tmp_path, workload, bad_id
):
    """A report id that is neither a string nor None is refused with
    ``MprosError`` before the batch is stamped, routed or written: the
    fused documents' evaluation time and the read-cache watermark stay
    where they were."""
    reports, ids = workload
    pdme = file_backed(tmp_path, 2)
    pdme.submit_batch(reports[:10], ids[:10])
    before = (pdme.as_of, pdme.intake_watermark, [w.report_count for w in pdme.workers])
    # The bad id comes last, after reports that would move ``as_of``.
    batch = reports[10:14]
    with pytest.raises(MprosError, match="not a string or None"):
        pdme.submit_batch(batch, list(ids[10:13]) + [bad_id])
    after = (pdme.as_of, pdme.intake_watermark, [w.report_count for w in pdme.workers])
    assert after == before
    assert max(r.timestamp for r in batch) > before[0]
    # The router still takes the same batch with valid ids.
    assert pdme.submit_batch(batch, ids[10:14]) == 4
    pdme.close()
