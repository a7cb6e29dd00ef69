"""Sharded multi-process PDME: consistent-hash fusion partitioning.

The paper's PDME is one prognostic executive; fleet scale (millions of
assets) outgrows a single process.  Both fusion paths partition cleanly
by sensed object — diagnostic state is per (object, group), prognostic
history is per (object, condition) — so routing every report for one
machine to one *shard* preserves the per-object substream order, which
is the only order fusion is sensitive to.  The fused model of N shards,
merged and evaluated at one shared ``as_of`` time, is therefore
byte-identical to the single-engine model over the same stream: the
shard-invariance suite in ``tests/shard/`` pins exactly that, the same
oracle discipline the parallel fleet replay used.

Pieces:

* :class:`ShardLayout` — a consistent-hash ring (blake2b, virtual
  nodes).  Stable: a key's shard depends only on (key, layout), never
  on process state.  Minimal: growing N -> N+1 shards only *adds* ring
  points, so every remigrated key lands on the new shard and the
  expected moved fraction is ~1/(N+1).
* :class:`ShardWorker` — one shard's single-writer
  :class:`~repro.oosm.persistence.ReportStore` partition plus its own
  :class:`~repro.fusion.engine.KnowledgeFusionEngine`.  No cross-shard
  locks; batches land through the store's coalesced ``ingest_batch``,
  which alone decides what is a duplicate.
  Crash/restart rebuilds the engine by replaying the partition log in
  intake order — dedup cursors (report ids) reload from the store.
* :class:`ShardedPdme` — the router.  Splits batched intake by shard,
  stamps each report with a global ``intake_seq`` so partitions merge
  back into the original arrival order, tracks the global ``as_of``,
  merges fused state deterministically, and rebalances to a new
  partition layout without dropping or duplicating reports.
* :func:`parallel_shard_ingest` — the multi-process executor timed by
  the ``shard_scaling`` gate (``benchmarks/gates.py``): one OS process
  per shard, fused fragments merged in the parent.  ``n_shards=1`` is
  the in-process oracle.

The router is the one sharded path: ``mpros serve``, the gateway, the
gates and the e2e workloads all fuse through :class:`ShardedPdme`.
"""

from __future__ import annotations

import bisect
import hashlib
from pathlib import Path
from typing import Callable, Collection, Sequence

from repro.common.errors import MprosError
from repro.common.ids import ObjectId
from repro.fusion.diagnostic import FusedDiagnosis
from repro.fusion.engine import KnowledgeFusionEngine
from repro.fusion.groups import (
    GroupRegistry,
    default_chiller_groups,
    default_turbine_groups,
)
from repro.oosm.persistence import ReportStore
from repro.protocol.canonical import canonical_dumps
from repro.protocol.prognostic import PrognosticVector
from repro.protocol.report import FailurePredictionReport

#: Ring points per shard.  More vnodes = smoother key balance and a
#: remigrated fraction closer to the ideal 1/(N+1); 64 keeps layout
#: construction trivial while holding imbalance under a few percent.
DEFAULT_VNODES = 64


def _hash64(key: str) -> int:
    """Stable 64-bit position on the ring.

    blake2b, not the builtin ``hash()``: Python salts string hashing
    per process, which would scatter keys differently in every worker.
    """
    return int.from_bytes(
        hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big"
    )


class ShardLayout:
    """Consistent-hash assignment of sensed objects to shards.

    Each shard contributes ``vnodes`` points to a 64-bit ring; a key
    belongs to the shard owning the first ring point at or after the
    key's own hash (wrapping).  Growing the shard count only inserts
    points for the new shards, so keys either stay put or move to a
    new shard — never between surviving shards.
    """

    def __init__(self, n_shards: int, vnodes: int = DEFAULT_VNODES) -> None:
        if n_shards < 1:
            raise MprosError(f"need at least one shard, got {n_shards}")
        if vnodes < 1:
            raise MprosError(f"need at least one vnode per shard, got {vnodes}")
        self.n_shards = n_shards
        self.vnodes = vnodes
        points = sorted(
            (_hash64(f"shard:{shard}|vnode:{v}"), shard)
            for shard in range(n_shards)
            for v in range(vnodes)
        )
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]
        # Routed keys and their shards: one entry per object this layout
        # has routed, that is the objects with reports (the keys of the
        # fused state) and the managed objects reads are scoped to.  A
        # rebalance builds a new layout, so it starts an empty memo.
        # Readers may route while the writer does: the value is a pure
        # function of (key, layout), so a racing store writes the same
        # int.
        self._memo: dict[ObjectId, int] = {}

    def shard_of(self, key: ObjectId) -> int:
        """The shard owning a key; pure function of (key, layout)."""
        shard = self._memo.get(key)
        if shard is None:
            i = bisect.bisect_right(self._points, _hash64(str(key)))
            shard = self._memo[key] = self._owners[i % len(self._owners)]
        return shard

    def partition(
        self, reports: Sequence[FailurePredictionReport]
    ) -> list[list[int]]:
        """Indices of ``reports`` per shard, order preserved."""
        per: list[list[int]] = [[] for _ in range(self.n_shards)]
        for i, report in enumerate(reports):
            per[self.shard_of(report.sensed_object_id)].append(i)
        return per


def registry_for_plant(plant: str) -> GroupRegistry:
    """The logical-group registry for a plant domain, by name.

    Names (not registry objects) cross the process boundary to the
    pool workers, so each worker rebuilds its registry locally.
    """
    if plant == "turbine":
        return default_turbine_groups()
    if plant == "chiller":
        return default_chiller_groups()
    raise MprosError(f"unknown plant {plant!r}; know ['chiller', 'turbine']")


def _owning_shards(layout: ShardLayout, objects: Collection[ObjectId]) -> list[int]:
    """The shards owning ``objects``, ascending."""
    return sorted({layout.shard_of(obj) for obj in objects})


def merge_snapshots(fragments: Sequence[dict], as_of: float) -> dict:
    """Merge per-shard fused snapshots into one model.

    Keys are disjoint across shards (every object lives on exactly one
    shard), so the merge is a union; :func:`canonical_dumps` sorting
    makes the serialized result independent of shard enumeration order.
    """
    diagnostic: dict[str, dict] = {}
    prognostic: dict[str, dict] = {}
    for frag in fragments:
        diagnostic.update(frag["diagnostic"])
        prognostic.update(frag["prognostic"])
    return {"as_of": as_of, "diagnostic": diagnostic, "prognostic": prognostic}


class ShardWorker:
    """One shard: a single-writer store partition plus its engine.

    The worker owns its :class:`ReportStore` exclusively — no other
    writer touches the partition, so there are no cross-shard locks and
    every batch lands as one coalesced transaction.  Opening a worker
    on a non-empty partition (restart, migration target seeded by
    rebalance) replays the log in intake order through a fresh engine,
    which reconstructs fused state deterministically — the same replay
    that certifies the incremental fusion fast path.
    """

    def __init__(
        self,
        shard_id: int,
        registry_factory: Callable[[], GroupRegistry],
        store_path: str | Path = ":memory:",
    ) -> None:
        self.shard_id = shard_id
        self._registry_factory = registry_factory
        self._store_path = str(store_path)
        self.crashed = False
        self.duplicates_dropped = 0
        self.store = ReportStore(self._store_path)
        self.engine = self._fresh_engine()
        self._replay_log()

    def _fresh_engine(self) -> KnowledgeFusionEngine:
        return KnowledgeFusionEngine(self._registry_factory())

    def _replay_log(self) -> int:
        """Rebuild fused state from the partition log, intake order."""
        rows = self.store.rows()
        if all(seq is not None for seq, _, _ in rows):
            rows.sort(key=lambda row: row[0])
        for _, _, report in rows:
            self.engine.ingest(report)
        return len(rows)

    def _require_alive(self) -> None:
        if self.crashed:
            raise MprosError(f"shard {self.shard_id} is crashed; restart() first")

    def ingest_batch(
        self,
        reports: Sequence[FailurePredictionReport],
        report_ids: Sequence[str | None] | None = None,
        intake_seqs: Sequence[int] | None = None,
    ) -> int:
        """Persist then fuse a batch; duplicates are dropped exactly once.

        The store decides which reports are duplicates, against its
        durable id index, and writes the rest; exactly those are fused.
        A crashed-and-retried batch (at-least-once delivery) therefore
        re-fuses nothing: the persisted ids survive the crash and the
        replayed copies are absorbed.
        """
        self._require_alive()
        written = self.store.ingest_batch(reports, report_ids, intake_seqs)
        self.duplicates_dropped += len(reports) - len(written)
        if written:
            self.engine.ingest_batch([reports[i] for i in written])
        return len(written)

    def fused_snapshot(
        self, as_of: float, objects: Collection[ObjectId] | None = None
    ) -> dict:
        """This partition's fused model at the global ``as_of``."""
        self._require_alive()
        return self.engine.fused_snapshot(as_of=as_of, objects=objects)

    def fused_diagnoses(
        self, objects: Collection[ObjectId] | None = None
    ) -> dict[str, FusedDiagnosis]:
        """This partition's live diagnostic state."""
        self._require_alive()
        return self.engine.fused_diagnoses(objects)

    def fused_curves(
        self, as_of: float, objects: Collection[ObjectId] | None = None
    ) -> dict[str, tuple[int, PrognosticVector]]:
        """This partition's fused curves at the global ``as_of``."""
        self._require_alive()
        return self.engine.fused_curves(as_of, objects)

    @property
    def report_count(self) -> int:
        """Reports persisted in this partition."""
        return self.store.count

    # -- crash / restart --------------------------------------------------
    def crash(self) -> None:
        """Simulate process death: volatile state (engine, dedup index
        cache) is gone; only the partition file survives."""
        self.store.close()
        self.engine = None  # type: ignore[assignment]
        self.crashed = True

    def restart(self) -> int:
        """Reopen the partition and replay it; returns reports replayed.

        A ``:memory:`` partition has no durable file — restart yields
        an honest empty shard (everything was volatile).
        """
        self.store = ReportStore(self._store_path)
        self.engine = self._fresh_engine()
        self.crashed = False
        return self._replay_log()

    def close(self) -> None:
        self.store.close()


class ShardedPdme:
    """Router over N shard workers: split intake, merge fused state.

    Batched intake is stamped with a global ``intake_seq`` per report
    at the split point and partitioned by the consistent-hash layout;
    each shard's sublist keeps arrival order, so per-object substreams
    — the only order fusion is sensitive to — are preserved.  The
    router also tracks the global ``as_of`` (max accepted timestamp):
    fused snapshots are always evaluated there, never at a shard-local
    maximum, which is what makes the merged model independent of N.
    """

    def __init__(
        self,
        n_shards: int,
        registry_factory: Callable[[], GroupRegistry] = default_chiller_groups,
        store_paths: Sequence[str | Path] | None = None,
        vnodes: int = DEFAULT_VNODES,
    ) -> None:
        if store_paths is not None and len(store_paths) != n_shards:
            raise MprosError(
                f"got {n_shards} shards but {len(store_paths)} store paths"
            )
        self.layout = ShardLayout(n_shards, vnodes)
        self._registry_factory = registry_factory
        paths = list(store_paths) if store_paths is not None else [":memory:"] * n_shards
        self.workers = [
            ShardWorker(i, registry_factory, paths[i]) for i in range(n_shards)
        ]
        self._next_seq = 0
        self._as_of = 0.0

    @property
    def n_shards(self) -> int:
        return self.layout.n_shards

    @property
    def as_of(self) -> float:
        """Global fusion "now": max timestamp across all intake."""
        return self._as_of

    @property
    def intake_watermark(self) -> int:
        """Monotone count of reports routed (the next global
        ``intake_seq``) — the snapshot-cache version key, advancing on
        every submit whether or not the shard deduped it."""
        return self._next_seq

    def partition_paths(self) -> list[str]:
        """The per-shard report-log paths, in shard order.

        Read replicas (:class:`repro.gateway.replica.ReadReplica`) open
        these files read-only to serve queries without ever touching
        the single-writer connections.  Raises for ``:memory:``
        partitions — there is no file for a second process to read.
        """
        paths = [w._store_path for w in self.workers]
        missing = [p for p in paths if p == ":memory:"]
        if missing:
            raise MprosError(
                "in-memory partitions have no replica-readable file; "
                "build the ShardedPdme with store_paths to serve replicas"
            )
        return paths

    @property
    def report_count(self) -> int:
        """Reports persisted across all partitions."""
        return sum(w.report_count for w in self.workers)

    @property
    def duplicates_dropped(self) -> int:
        return sum(w.duplicates_dropped for w in self.workers)

    # -- intake -----------------------------------------------------------
    def submit(
        self, report: FailurePredictionReport, report_id: str | None = None
    ) -> int:
        """Route one report; returns 1 if written, 0 if duplicate."""
        return self.submit_batch([report], [report_id])

    def submit_batch(
        self,
        reports: Sequence[FailurePredictionReport],
        report_ids: Sequence[str | None] | None = None,
    ) -> int:
        """Split a batch by shard and land per-shard coalesced batches.

        Returns the number of reports actually written (duplicates by
        report id are absorbed at their owning shard, exactly once).
        A report id that is neither a string nor ``None`` is refused
        before anything is stamped, routed or written.
        """
        ids = list(report_ids) if report_ids is not None else [None] * len(reports)
        if len(ids) != len(reports):
            raise MprosError(
                f"got {len(reports)} reports but {len(ids)} report ids"
            )
        per: list[tuple[list, list, list]] = [
            ([], [], []) for _ in range(self.n_shards)
        ]
        seq = self._next_seq
        as_of = self._as_of
        for report, rid in zip(reports, ids):
            # Exact type first: a plain str id costs one test.
            if type(rid) is not str and rid is not None and not isinstance(rid, str):
                raise MprosError(
                    f"the report id at batch position {seq - self._next_seq} "
                    f"is a {type(rid).__name__}, not a string or None"
                )
            if report.timestamp > as_of:
                as_of = report.timestamp
            rs, rids, seqs = per[self.layout.shard_of(report.sensed_object_id)]
            rs.append(report)
            rids.append(rid)
            seqs.append(seq)
            seq += 1
        written = 0
        try:
            for worker, (rs, rids, seqs) in zip(self.workers, per):
                if rs:
                    written += worker.ingest_batch(rs, rids, seqs)
        finally:
            # Published only after every shard has persisted and fused
            # its part (or failed): a reader that sees the new
            # watermark never reads the state from before the batch.
            self._as_of = as_of
            self._next_seq = seq
        return written

    # -- queries ----------------------------------------------------------
    def time_to_failure(
        self, sensed_object_id: ObjectId, machine_condition_id: ObjectId,
        probability: float = 0.5, now: float | None = None,
    ) -> float:
        """Per-object query routed to the owning shard, evaluated at
        the *global* now by default."""
        t = now if now is not None else self._as_of
        worker = self.workers[self.layout.shard_of(sensed_object_id)]
        worker._require_alive()
        return worker.engine.time_to_failure(
            sensed_object_id, machine_condition_id, probability, now=t
        )

    def _workers_for(
        self, objects: Collection[ObjectId] | None
    ) -> list[ShardWorker]:
        if objects is None:
            return self.workers
        return [self.workers[i] for i in _owning_shards(self.layout, objects)]

    def fused_snapshot(
        self, as_of: float | None = None, objects: Collection[ObjectId] | None = None
    ) -> dict:
        """Merged fused model across all partitions; with ``objects``,
        only their pairs, read from their owning shards."""
        t = as_of if as_of is not None else self._as_of
        return merge_snapshots(
            [w.fused_snapshot(t, objects) for w in self._workers_for(objects)], t
        )

    def fused_diagnoses(
        self, objects: Collection[ObjectId] | None = None
    ) -> dict[str, FusedDiagnosis]:
        """Merged live diagnostic state; no prognostic fusion runs.
        With ``objects``, read from their owning partitions only."""
        merged: dict[str, FusedDiagnosis] = {}
        for worker in self._workers_for(objects):
            merged.update(worker.fused_diagnoses(objects))
        return merged

    def fused_curves(
        self, as_of: float | None = None, objects: Collection[ObjectId] | None = None
    ) -> dict[str, tuple[int, PrognosticVector]]:
        """Merged ``(report_count, fused vector)`` per pair at the global
        ``as_of``; with ``objects``, from their owning partitions only."""
        t = as_of if as_of is not None else self._as_of
        merged: dict[str, tuple[int, PrognosticVector]] = {}
        for worker in self._workers_for(objects):
            merged.update(worker.fused_curves(t, objects))
        return merged

    def canonical_fused_json(self, as_of: float | None = None) -> str:
        """Byte-stable rendering of :meth:`fused_snapshot` — the value
        the shard-invariance suite compares across shard counts."""
        return canonical_dumps(self.fused_snapshot(as_of))

    # -- rebalance --------------------------------------------------------
    def rebalance(
        self,
        n_shards: int,
        store_paths: Sequence[str | Path] | None = None,
        vnodes: int | None = None,
    ) -> dict:
        """Migrate to a new partition layout without loss or duplication.

        Every partition row — report, its dedup cursor (report id), its
        global ``intake_seq`` — is re-routed under the new layout and
        re-inserted in intake order, then fused state is rebuilt by the
        same deterministic replay a restart uses.  Ids travel with the
        rows, so at-least-once retries spanning the rebalance still
        dedup: exactly-once holds across the migration.

        Returns ``{"from", "to", "total", "moved"}`` where ``moved``
        counts rows whose owning shard changed.
        """
        if store_paths is not None and len(store_paths) != n_shards:
            raise MprosError(
                f"got {n_shards} shards but {len(store_paths)} store paths"
            )
        old_layout = self.layout
        new_layout = ShardLayout(
            n_shards, vnodes if vnodes is not None else old_layout.vnodes
        )
        rows: list[tuple[int | None, str | None, FailurePredictionReport]] = []
        for worker in self.workers:
            worker._require_alive()
            rows.extend(worker.store.rows())
        # Global intake order; rows from pre-shard-era logs (NULL seq)
        # sort ahead in stored order.
        rows.sort(key=lambda row: row[0] if row[0] is not None else -1)
        paths = list(store_paths) if store_paths is not None else [":memory:"] * n_shards
        new_workers = [
            ShardWorker(i, self._registry_factory, paths[i])
            for i in range(n_shards)
        ]
        per: list[tuple[list, list, list]] = [([], [], []) for _ in range(n_shards)]
        moved = 0
        for seq, rid, report in rows:
            key = report.sensed_object_id
            target = new_layout.shard_of(key)
            if old_layout.shard_of(key) != target:
                moved += 1
            rs, rids, seqs = per[target]
            rs.append(report)
            rids.append(rid)
            seqs.append(seq if seq is not None else -1)
        for worker, (rs, rids, seqs) in zip(new_workers, per):
            if rs:
                worker.ingest_batch(rs, rids, seqs)
        for worker in self.workers:
            worker.close()
        self.layout = new_layout
        self.workers = new_workers
        return {
            "from": old_layout.n_shards,
            "to": n_shards,
            "total": len(rows),
            "moved": moved,
        }

    def close(self) -> None:
        for worker in self.workers:
            worker.close()


# -- multi-process executor -----------------------------------------------

def _fuse_partition(
    plant: str,
    reports: list[FailurePredictionReport],
    report_ids: list[str | None],
    intake_seqs: list[int],
    as_of: float,
) -> dict:
    """Pool worker: fuse one partition, return its snapshot fragment.

    Module-level so it pickles; reports cross the boundary as the
    frozen dataclasses themselves (proven picklable by fleet replay).
    """
    worker = ShardWorker(0, lambda: registry_for_plant(plant))
    worker.ingest_batch(reports, report_ids, intake_seqs)
    return worker.fused_snapshot(as_of)


def parallel_shard_ingest(
    reports: Sequence[FailurePredictionReport],
    report_ids: Sequence[str | None] | None = None,
    n_shards: int = 2,
    plant: str = "chiller",
    vnodes: int = DEFAULT_VNODES,
    max_workers: int | None = None,
) -> dict:
    """Fuse a report stream across N worker *processes*; return the
    merged fused snapshot.

    ``n_shards=1`` runs in-process — the oracle the ``shard_scaling``
    gate and the invariance tests compare every multi-process result against.
    The merged snapshot's canonical bytes are independent of
    ``n_shards`` by construction (consistent-hash routing preserves
    per-object substream order; evaluation happens at the one global
    ``as_of``).
    """
    from concurrent.futures import ProcessPoolExecutor

    registry_for_plant(plant)  # validate the name before forking
    ids = list(report_ids) if report_ids is not None else [None] * len(reports)
    if len(ids) != len(reports):
        raise MprosError(f"got {len(reports)} reports but {len(ids)} report ids")
    as_of = max((r.timestamp for r in reports), default=0.0)
    if n_shards == 1:
        return _fuse_partition(plant, list(reports), ids, list(range(len(reports))), as_of)
    layout = ShardLayout(n_shards, vnodes)
    partitions = layout.partition(reports)
    jobs = [
        (
            [reports[i] for i in idxs],
            [ids[i] for i in idxs],
            list(idxs),
        )
        for idxs in partitions
        if idxs
    ]
    with ProcessPoolExecutor(max_workers=max_workers or n_shards) as pool:
        futures = [
            pool.submit(_fuse_partition, plant, rs, rids, seqs, as_of)
            for rs, rids, seqs in jobs
        ]
        fragments = [f.result() for f in futures]
    return merge_snapshots(fragments, as_of)
