"""§4.6 database mapping: OOSM persistence on a relational database.

"Object types are mapped to tables and properties and relationships are
mapped to columns and helper tables."  We keep the same shape in
sqlite3: an entity table, a property helper table (one row per
property), a relationship helper table and a report table.  As in the
paper, persistence is "entirely managed in the background": callers use
:func:`save_model` / :func:`load_model` and never see SQL.

For fleet-scale report volume the full-rewrite :func:`save_model` path
is the wrong shape; :class:`ReportStore` is the incremental append-only
report log.  Its :meth:`ReportStore.ingest_batch` coalesces a whole
batch into a single transaction (one ``executemany``, one commit) and
performs the duplicate-id check against an index loaded once at open —
not one query per report.
"""

from __future__ import annotations

import json
import math
import sqlite3
from pathlib import Path
from typing import Iterable, Sequence

from repro.common.errors import OosmError
from repro.oosm.model import ShipModel
from repro.oosm.schema import TypeRegistry
from repro.protocol.report import FailurePredictionReport
from repro.protocol.wire import decode_report, encode_report

_SCHEMA = """
CREATE TABLE IF NOT EXISTS entity_types (
    name   TEXT PRIMARY KEY,
    parent TEXT
);
CREATE TABLE IF NOT EXISTS entities (
    id   TEXT PRIMARY KEY,
    type TEXT NOT NULL REFERENCES entity_types(name)
);
CREATE TABLE IF NOT EXISTS properties (
    entity_id TEXT NOT NULL REFERENCES entities(id),
    name      TEXT NOT NULL,
    value     TEXT NOT NULL,          -- JSON-encoded
    PRIMARY KEY (entity_id, name)
);
CREATE TABLE IF NOT EXISTS relationships (
    kind      TEXT NOT NULL,
    source_id TEXT NOT NULL REFERENCES entities(id),
    target_id TEXT NOT NULL REFERENCES entities(id),
    PRIMARY KEY (kind, source_id, target_id)
);
CREATE TABLE IF NOT EXISTS reports (
    seq     INTEGER PRIMARY KEY AUTOINCREMENT,
    payload TEXT NOT NULL             -- JSON-encoded wire form
);
"""


def _reject_constant(name: str) -> object:
    raise ValueError(f"non-finite number {name}")


def _finite_float(text: str) -> float:
    # ``1e400`` is valid JSON that ``float`` reads as infinity.
    value = float(text)
    if math.isfinite(value):
        return value
    raise ValueError(f"non-finite number {text}")


def load_payload(payload: str) -> dict:
    """One stored report payload parsed to its wire dict.

    Log rows are read back with the same finite-only hooks as
    property rows: a row edited to hold ``NaN``, ``1e400``, text that
    is not JSON, or JSON that is not an object raises
    :class:`OosmError`.
    """
    try:
        value = json.loads(
            payload, parse_float=_finite_float, parse_constant=_reject_constant
        )
    except (TypeError, ValueError) as exc:
        raise OosmError(f"stored report is not finite JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise OosmError(
            f"stored report is a JSON {type(value).__name__}, not an object"
        )
    return value


def save_model(model: ShipModel, path: str | Path) -> None:
    """Persist a ship model (entities, properties, relationships,
    retained reports) to a sqlite database file, replacing previous
    contents."""
    conn = sqlite3.connect(str(path))
    try:
        with conn:
            conn.executescript(_SCHEMA)
            conn.execute("DELETE FROM reports")
            conn.execute("DELETE FROM relationships")
            conn.execute("DELETE FROM properties")
            conn.execute("DELETE FROM entities")
            conn.execute("DELETE FROM entity_types")
            conn.executemany(
                "INSERT INTO entity_types (name, parent) VALUES (?, ?)",
                [(t.name, t.parent) for t in model.types],
            )
            conn.executemany(
                "INSERT INTO entities (id, type) VALUES (?, ?)",
                [(e.id, e.type_name) for e in model.entities()],
            )
            prop_rows = []
            for e in model.entities():
                for name, value in e.properties.items():
                    try:
                        # No NaN/Infinity: load_model refuses them.
                        encoded = json.dumps(value, allow_nan=False)
                    except (TypeError, ValueError) as exc:
                        raise OosmError(
                            f"property {name!r} of {e.id!r} is not JSON-persistable: {exc}"
                        ) from exc
                    prop_rows.append((e.id, name, encoded))
            conn.executemany(
                "INSERT INTO properties (entity_id, name, value) VALUES (?, ?, ?)",
                prop_rows,
            )
            conn.executemany(
                "INSERT INTO relationships (kind, source_id, target_id) VALUES (?, ?, ?)",
                [(r.kind, r.source_id, r.target_id) for r in model.relationships()],
            )
            conn.executemany(
                "INSERT INTO reports (payload) VALUES (?)",
                [(json.dumps(encode_report(r)),) for r in model.all_reports()],
            )
    finally:
        conn.close()


def load_model(path: str | Path) -> ShipModel:
    """Reload a ship model saved by :func:`save_model`.

    The returned model has a fresh event bus (subscriptions are not
    persisted state).
    """
    p = Path(path)
    if not p.exists():
        raise OosmError(f"no OOSM database at {p}")
    conn = sqlite3.connect(str(p))
    try:
        types = TypeRegistry()
        rows = conn.execute("SELECT name, parent FROM entity_types").fetchall()
        # Parents must exist before children: insert in dependency order.
        pending = {name: parent for name, parent in rows}
        pending.pop("entity", None)
        while pending:
            progressed = False
            for name, parent in list(pending.items()):
                if parent is None or parent in types:
                    types.add(name, parent if parent is not None else "entity")
                    del pending[name]
                    progressed = True
            if not progressed:
                raise OosmError(f"cyclic or dangling entity types: {sorted(pending)}")
        model = ShipModel(types=types)
        for eid, type_name in conn.execute("SELECT id, type FROM entities"):
            model.create(type_name, id=eid)
        for eid, name, value in conn.execute(
            "SELECT entity_id, name, value FROM properties"
        ):
            try:
                decoded = json.loads(
                    value, parse_float=_finite_float, parse_constant=_reject_constant
                )
            except (TypeError, ValueError) as exc:
                raise OosmError(
                    f"table properties: value of {name!r} on {eid!r} "
                    f"is not a finite JSON value: {exc}"
                ) from exc
            model.get(eid).properties[name] = decoded
        for kind, src, dst in conn.execute(
            "SELECT kind, source_id, target_id FROM relationships"
        ):
            model.relate(src, kind, dst)
        for (payload,) in conn.execute("SELECT payload FROM reports ORDER BY seq"):
            model.post_report(decode_report(load_payload(payload)))
        return model
    finally:
        conn.close()


_REPORT_LOG_SCHEMA = """
CREATE TABLE IF NOT EXISTS report_log (
    seq        INTEGER PRIMARY KEY AUTOINCREMENT,
    report_id  TEXT UNIQUE,              -- NULL for id-less senders
    payload    TEXT NOT NULL,            -- JSON-encoded wire form
    intake_seq INTEGER                   -- router-assigned global order
);
"""

#: Keyset-pagination index: seeks on ``(intake_seq, seq)`` must never
#: scan.  ``IFNULL(intake_seq, -1)`` folds pre-shard-era rows (NULL
#: stamp) ahead of every stamped row, matching the rebalance sort.
_REPORT_LOG_KEYSET_INDEX = (
    "CREATE INDEX IF NOT EXISTS report_log_keyset "
    "ON report_log (IFNULL(intake_seq, -1), seq)"
)

#: One page row: ``(intake_seq, seq, report_id, payload)``.  The
#: payload stays in wire-JSON form so a serving layer can hand it out
#: without a decode/re-encode round trip.
PageRow = tuple[int | None, int, str | None, str]

_PAGE_SQL = (
    "SELECT intake_seq, seq, report_id, payload FROM report_log "
    "WHERE IFNULL(intake_seq, -1) > ? "
    "   OR (IFNULL(intake_seq, -1) = ? AND seq > ?) "
    "ORDER BY IFNULL(intake_seq, -1), seq LIMIT ?"
)


def _page_after(
    conn: sqlite3.Connection, after: tuple[int, int] | None, limit: int
) -> list[PageRow]:
    """Keyset seek shared by the writer store and read-only replicas."""
    if limit < 1:
        raise OosmError(f"page limit must be positive, got {limit}")
    key, seq = after if after is not None else (-(2**62), -1)
    return [
        (row[0], row[1], row[2], row[3])
        for row in conn.execute(_PAGE_SQL, (key, key, seq, limit))
    ]


class ReportStore:
    """Durable append-only report log with exactly-once semantics.

    ``:memory:`` works for tests; any path yields a persistent log.
    The known-id index is loaded once at open and maintained in memory
    — duplicate checks never touch the database again.

    A store may serve as one *partition* of a sharded log: the shard
    router stamps every report with a global ``intake_seq`` at the
    split point, so the fleet-wide arrival order survives partitioning
    — merging partitions by ``intake_seq`` reproduces exactly the
    stream a single store would have logged.
    """

    def __init__(self, path: str | Path = ":memory:") -> None:
        # check_same_thread=False: the gateway's bulk-write endpoint
        # reaches the owning router from HTTP worker threads.  SQLite's
        # serialized threading mode makes cross-thread use safe as long
        # as writes are externally serialized — which the single-writer
        # discipline (one store object, one owner, gateway write lock)
        # already guarantees.
        self._conn = sqlite3.connect(str(path), check_same_thread=False)
        if str(path) != ":memory:":
            # WAL lets read-replica connections (the gateway's serving
            # path) read committed pages while this single writer keeps
            # appending — readers never block the writer or vice versa.
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA busy_timeout=5000")
        self._conn.executescript(_REPORT_LOG_SCHEMA)
        # Logs created before the sharded-PDME era predate the
        # intake_seq column; upgrade them in place (NULL = unknown).
        cols = {
            row[1]
            for row in self._conn.execute("PRAGMA table_info(report_log)")
        }
        if "intake_seq" not in cols:
            self._conn.execute(
                "ALTER TABLE report_log ADD COLUMN intake_seq INTEGER"
            )
        # The keyset index arrived with the gateway read path; creating
        # it here auto-upgrades pre-gateway logs on open, the same
        # pattern the intake_seq column upgrade uses.
        self._conn.execute(_REPORT_LOG_KEYSET_INDEX)
        self._conn.commit()
        self._seen_ids: set[str] = {
            rid
            for (rid,) in self._conn.execute(
                "SELECT report_id FROM report_log WHERE report_id IS NOT NULL"
            )
        }

    # -- writes ----------------------------------------------------------
    def ingest(
        self, report: FailurePredictionReport, report_id: str | None = None
    ) -> bool:
        """Append one report; returns False if its id was already seen.

        One transaction per call — the scalar ablation for
        :meth:`ingest_batch`.
        """
        if report_id is not None and report_id in self._seen_ids:
            return False
        with self._conn:
            self._conn.execute(
                "INSERT INTO report_log (report_id, payload) VALUES (?, ?)",
                (report_id, json.dumps(encode_report(report))),
            )
        if report_id is not None:
            self._seen_ids.add(report_id)
        return True

    def ingest_batch(
        self,
        reports: Sequence[FailurePredictionReport],
        report_ids: Sequence[str | None] | None = None,
        intake_seqs: Sequence[int] | None = None,
    ) -> int:
        """Append a batch of reports in one coalesced transaction.

        Duplicate ids (previously stored or repeated within the batch)
        are skipped.  Returns the number of reports actually written.
        The log contents are byte-identical to calling :meth:`ingest`
        once per report in the same order.

        ``intake_seqs`` optionally stamps each report with the global
        arrival order assigned by a shard router — partitions of a
        sharded log merge back into the original stream by this key.
        """
        if report_ids is None:
            report_ids = [None] * len(reports)
        if len(report_ids) != len(reports):
            raise OosmError(
                f"got {len(reports)} reports but {len(report_ids)} report ids"
            )
        if intake_seqs is not None and len(intake_seqs) != len(reports):
            raise OosmError(
                f"got {len(reports)} reports but {len(intake_seqs)} intake seqs"
            )
        # Single dedup pass against the in-memory index, then one
        # executemany inside one transaction: per-batch, not per-row.
        rows: list[tuple[str | None, str, int | None]] = []
        fresh_ids: set[str] = set()
        for i, (report, rid) in enumerate(zip(reports, report_ids)):
            if rid is not None and (rid in self._seen_ids or rid in fresh_ids):
                continue
            if rid is not None:
                fresh_ids.add(rid)
            rows.append((
                rid,
                json.dumps(encode_report(report)),
                intake_seqs[i] if intake_seqs is not None else None,
            ))
        if rows:
            with self._conn:
                self._conn.executemany(
                    "INSERT INTO report_log (report_id, payload, intake_seq) "
                    "VALUES (?, ?, ?)",
                    rows,
                )
            self._seen_ids |= fresh_ids
        return len(rows)

    # -- reads -----------------------------------------------------------
    def all_reports(self) -> list[FailurePredictionReport]:
        """Every stored report in append order."""
        return [
            decode_report(load_payload(payload))
            for (payload,) in self._conn.execute(
                "SELECT payload FROM report_log ORDER BY seq"
            )
        ]

    def rows(self) -> list[tuple[int | None, str | None, FailurePredictionReport]]:
        """Every stored ``(intake_seq, report_id, report)`` in append
        order — the shard migration/merge view of the partition."""
        return [
            (seq, rid, decode_report(load_payload(payload)))
            for seq, rid, payload in self._conn.execute(
                "SELECT intake_seq, report_id, payload FROM report_log ORDER BY seq"
            )
        ]

    def page_after(
        self, after: tuple[int, int] | None, limit: int
    ) -> list[PageRow]:
        """One keyset page of ``(intake_seq, seq, report_id, payload)``.

        ``after`` is the last row key of the previous page as
        ``(IFNULL(intake_seq, -1), seq)`` — ``None`` starts from the
        beginning.  The seek runs on the ``report_log_keyset`` index
        (never OFFSET), so page N costs the same as page 0 no matter
        how deep the log is, and rows appended after a pagination pass
        started can only appear *beyond* the already-served keys:
        in-flight paginations never skip or duplicate a row.
        """
        return _page_after(self._conn, after, limit)

    def last_key(self) -> tuple[int, int] | None:
        """The largest pagination key currently in the log, or None.

        A reader that wants "everything present now, then stop" pages
        until it passes this watermark.
        """
        row = self._conn.execute(
            "SELECT IFNULL(intake_seq, -1), seq FROM report_log "
            "ORDER BY IFNULL(intake_seq, -1) DESC, seq DESC LIMIT 1"
        ).fetchone()
        return (int(row[0]), int(row[1])) if row is not None else None

    def seen(self, report_id: str) -> bool:
        """Was a report with this id already ingested?"""
        return report_id in self._seen_ids

    @property
    def count(self) -> int:
        """Number of stored reports."""
        row = self._conn.execute("SELECT COUNT(*) FROM report_log").fetchone()
        return int(row[0])

    def close(self) -> None:
        """Close the underlying database connection."""
        self._conn.close()


class ReportLogReader:
    """A read-only view of one :class:`ReportStore` partition file.

    The gateway's serving path opens the partition through SQLite's
    ``mode=ro`` URI so a reader *cannot* become a second writer — the
    shard's single-writer discipline is enforced by the connection
    itself, not by convention.  WAL journaling (enabled by the writer)
    means these readers see every committed batch without ever taking
    a lock the writer waits on.
    """

    def __init__(self, path: str | Path) -> None:
        p = Path(path)
        if str(path) == ":memory:" or not p.exists():
            raise OosmError(
                f"no report log at {path!r} (replica readers need a "
                f"file-backed partition)"
            )
        self._conn = sqlite3.connect(f"file:{p}?mode=ro", uri=True)
        self._conn.execute("PRAGMA busy_timeout=5000")

    def page_after(
        self, after: tuple[int, int] | None, limit: int
    ) -> list[PageRow]:
        """Same keyset contract as :meth:`ReportStore.page_after`."""
        return _page_after(self._conn, after, limit)

    @property
    def count(self) -> int:
        """Committed reports visible to this reader right now."""
        row = self._conn.execute("SELECT COUNT(*) FROM report_log").fetchone()
        return int(row[0])

    def close(self) -> None:
        self._conn.close()
