"""Read replicas over the sharded PDME's partition logs.

The sharded PDME (PR 8) made *ingest* scale across processes, but its
partitions are single-writer by design — a reader sharing the writer's
connection would serialize behind every coalesced batch commit.  This
module gives the gateway a contention-free read path instead:

* each shard's SQLite log is opened **read-only** (SQLite ``mode=ro``
  URI) — the single-writer invariant is enforced by the connection
  mode, not convention, and ``conc.single-writer`` has nothing to
  flag because no write surface exists on this path;
* the writer runs WAL journaling (see
  :class:`repro.oosm.persistence.ReportStore`), so readers see every
  committed batch without taking locks the writer waits on —
  concurrent readers never contend with sustained ingest;
* connections are **per thread** (SQLite connections are not shareable
  across threads); a replica handed to N server threads lazily opens N
  independent read-only connections per shard.

Reads merge the per-shard keyset pages by the router-stamped global
``intake_seq``, reproducing exactly the stream a single store would
have logged — the same merge contract ``ShardedPdme.rebalance`` uses.
"""

from __future__ import annotations

import heapq
import threading
from pathlib import Path
from typing import Sequence

from repro.common.errors import GatewayError
from repro.oosm.persistence import PageRow, ReportLogReader


class ReadReplica:
    """Merged read-only view over N partition log files.

    Parameters
    ----------
    paths:
        The per-shard report-log files, in shard order — typically
        :meth:`repro.pdme.shard.ShardedPdme.partition_paths`.
    """

    def __init__(self, paths: Sequence[str | Path]) -> None:
        if not paths:
            raise GatewayError("a read replica needs at least one partition")
        self.paths = [str(p) for p in paths]
        self._local = threading.local()

    @classmethod
    def for_pdme(cls, pdme) -> "ReadReplica":
        """A replica over a live :class:`ShardedPdme`'s partitions."""
        return cls(pdme.partition_paths())

    def _readers(self) -> list[ReportLogReader]:
        """This thread's read-only connections (opened on first use)."""
        readers = getattr(self._local, "readers", None)
        if readers is None:
            readers = [ReportLogReader(p) for p in self.paths]
            self._local.readers = readers
        return readers

    def page_after(
        self, after: tuple[int, int] | None, limit: int
    ) -> list[PageRow]:
        """One merged keyset page across all partitions.

        Each shard serves its own index-seeked page of up to ``limit``
        rows past the cursor; a k-way merge on the pagination key
        ``(IFNULL(intake_seq, -1), seq)`` yields the global page.  With
        router-stamped logs the key's first element is globally unique,
        so the merged order *is* the fleet-wide arrival order and the
        cursor resumes exactly (ties from pre-shard-era NULL rows break
        deterministically by shard position).
        """
        if limit < 1:
            raise GatewayError(f"page limit must be positive, got {limit}")
        per_shard = [r.page_after(after, limit) for r in self._readers()]
        merged = heapq.merge(
            *(
                (((_key(row), shard), row) for row in rows)
                for shard, rows in enumerate(per_shard)
            ),
            key=lambda pair: pair[0],
        )
        return [row for _, row in list(merged)[:limit]]

    def object_payloads(self, sensed_object_id: str) -> list[str]:
        """The stored payloads about one object across all partitions,
        in arrival order (ties break by shard position, as in
        :meth:`page_after`)."""
        per_shard = [r.object_rows(sensed_object_id) for r in self._readers()]
        merged = heapq.merge(*per_shard, key=lambda row: (row[0], row[1]))
        return [row[2] for row in merged]

    @property
    def count(self) -> int:
        """Committed reports visible across all partitions."""
        return sum(r.count for r in self._readers())

    def close(self) -> None:
        """Close this thread's connections (other threads' survive)."""
        readers = getattr(self._local, "readers", None)
        if readers is not None:
            for r in readers:
                r.close()
            self._local.readers = None


def _key(row: PageRow) -> tuple[int, int]:
    intake_seq, seq = row[0], row[1]
    return (intake_seq if intake_seq is not None else -1, seq)
