"""§4.6 database mapping: OOSM persistence on a relational database.

"Object types are mapped to tables and properties and relationships are
mapped to columns and helper tables."  We keep the same shape in
sqlite3: an entity table, a property helper table (one row per
property) and a relationship helper table.  As in the paper,
persistence is "entirely managed in the background": callers use
:func:`save_model` / :func:`load_model` and never see SQL.

The model holds structure only; reports live in :class:`ReportStore`,
the incremental append-only report log each PDME shard owns.  Its
:meth:`ReportStore.ingest_batch` coalesces a whole batch into a single
transaction (one ``executemany``, one commit) and performs the
duplicate-id check against an index loaded once at open — not one
query per report.  Each row carries its sensed object, so per-object
history is read from the log (:meth:`ReportStore.reports_for`).
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
# ``encode_report`` stays a name here: the e2e benchmark's tracer spans
# ``repro.oosm.persistence.encode_report`` as ``protocol.encode``.
from repro.protocol.wire import decode_report, encode_report, report_text  # noqa: F401

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
        value = json.loads(payload, parse_float=_finite_float, parse_constant=_reject_constant)
    except (TypeError, ValueError) as exc:
        raise OosmError(f"stored report is not finite JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise OosmError(f"stored report is a JSON {type(value).__name__}, not an object")
    return value


def save_model(model: ShipModel, path: str | Path) -> None:
    """Persist a ship model's structure (entity types, entities,
    properties, relationships) to a sqlite database file, replacing
    previous contents.  Reports are not model state: they live in the
    PDME's report log."""
    conn = sqlite3.connect(str(path))
    try:
        with conn:
            conn.executescript(_SCHEMA)
            # Files saved before the model held structure only also
            # carry a report table; a save replaces all of it.
            conn.execute("DROP TABLE IF EXISTS reports")
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
    finally:
        conn.close()


def load_model(path: str | Path) -> ShipModel:
    """Reload a ship model saved by :func:`save_model`.

    The returned model has a fresh event bus (subscriptions are not
    persisted state).  A file saved while the model still retained
    reports keeps them in a ``reports`` table; the load moves them into
    the file's report log, read by ``ReportStore(path)``, and refuses
    the file, changing nothing, if any of those rows is corrupt.
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
        legacy_sql = "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = 'reports'"
        if conn.execute(legacy_sql).fetchone() is not None:
            # Parse every row before writing; then let ReportStore
            # create or upgrade the file's log.
            rows = conn.execute("SELECT payload FROM reports ORDER BY seq").fetchall()
            legacy = [decode_report(load_payload(text)) for (text,) in rows]
            ReportStore(p).close()
            with conn:
                conn.executemany(
                    "INSERT INTO report_log (payload, sensed_object_id) VALUES (?, ?)",
                    [(report_text(r), r.sensed_object_id) for r in legacy],
                )
                conn.execute("DROP TABLE reports")
        return model
    finally:
        conn.close()


_REPORT_LOG_SCHEMA = """
CREATE TABLE IF NOT EXISTS report_log (
    seq              INTEGER PRIMARY KEY AUTOINCREMENT,
    report_id        TEXT UNIQUE,        -- NULL for id-less senders
    payload          TEXT NOT NULL,      -- JSON-encoded wire form
    intake_seq       INTEGER,            -- router-assigned global order
    sensed_object_id TEXT                -- the payload's, for object reads
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


#: One object's ``(pagination key..., payload)`` rows in arrival order,
#: by a scan: an index on the column would tax every intake write to
#: speed a read that is rare.
_OBJECT_SQL = (
    "SELECT IFNULL(intake_seq, -1), seq, payload FROM report_log "
    "WHERE sensed_object_id = ? ORDER BY IFNULL(intake_seq, -1), seq"
)


def _page_after(
    conn: sqlite3.Connection, after: tuple[int, int] | None, limit: int
) -> list[PageRow]:
    """Keyset seek shared by the writer store and read-only replicas."""
    if limit < 1:
        raise OosmError(f"page limit must be positive, got {limit}")
    key, seq = after if after is not None else (-(2**62), -1)
    return conn.execute(_PAGE_SQL, (key, key, seq, limit)).fetchall()


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
        # Logs from before per-object reads lack the sensed object
        # column; add it and fill it from each stored payload.
        if "sensed_object_id" not in cols:
            rows = self._conn.execute("SELECT seq, payload FROM report_log").fetchall()
            self._conn.execute("ALTER TABLE report_log ADD COLUMN sensed_object_id TEXT")
            self._conn.executemany(
                "UPDATE report_log SET sensed_object_id = ? WHERE seq = ?",
                [(load_payload(p).get("sensed_object_id"), seq) for seq, p in rows],
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
    def ingest_batch(
        self,
        reports: Sequence[FailurePredictionReport],
        report_ids: Sequence[str | None] | None = None,
        intake_seqs: Sequence[int] | None = None,
    ) -> list[int]:
        """Append a batch of reports in one coalesced transaction.

        Duplicate ids (previously stored or repeated within the batch)
        are skipped.  Returns the positions in ``reports`` of the
        reports actually written, ascending.  The log contents are
        byte-identical to one single-report batch per report in the
        same order.

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
        rows: list[tuple[str | None, str, int | None, str]] = []
        written: list[int] = []
        fresh_ids: set[str] = set()
        for i, (report, rid) in enumerate(zip(reports, report_ids)):
            if rid is not None and (rid in self._seen_ids or rid in fresh_ids):
                continue
            if rid is not None:
                fresh_ids.add(rid)
            written.append(i)
            rows.append((
                rid,
                report_text(report),
                intake_seqs[i] if intake_seqs is not None else None,
                report.sensed_object_id,
            ))
        if rows:
            with self._conn:
                self._conn.executemany(
                    "INSERT INTO report_log "
                    "(report_id, payload, intake_seq, sensed_object_id) "
                    "VALUES (?, ?, ?, ?)",
                    rows,
                )
            self._seen_ids |= fresh_ids
        return written

    # -- reads -----------------------------------------------------------
    def all_reports(self) -> list[FailurePredictionReport]:
        """Every stored report in append order."""
        return [report for _, _, report in self.rows()]

    def reports_for(self, sensed_object_id: str) -> list[FailurePredictionReport]:
        """Every stored report about one sensed object, arrival order
        (the router's ``intake_seq``, then append order)."""
        return [
            decode_report(load_payload(payload))
            for _, _, payload in self._conn.execute(_OBJECT_SQL, (sensed_object_id,))
        ]

    def rows(self) -> list[tuple[int | None, str | None, FailurePredictionReport]]:
        """Every stored ``(intake_seq, report_id, report)`` in append
        order — the shard migration/merge view of the partition."""
        sql = "SELECT intake_seq, report_id, payload FROM report_log ORDER BY seq"
        return [
            (seq, rid, decode_report(load_payload(payload)))
            for seq, rid, payload in self._conn.execute(sql)
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

    @property
    def count(self) -> int:
        """Number of stored reports."""
        return int(self._conn.execute("SELECT COUNT(*) FROM report_log").fetchone()[0])

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

    def object_rows(self, sensed_object_id: str) -> list[tuple[int, int, str]]:
        """One object's ``(IFNULL(intake_seq, -1), seq, payload)`` rows,
        arrival order."""
        return self._conn.execute(_OBJECT_SQL, (sensed_object_id,)).fetchall()

    @property
    def count(self) -> int:
        """Committed reports visible to this reader right now."""
        return int(self._conn.execute("SELECT COUNT(*) FROM report_log").fetchone()[0])

    def close(self) -> None:
        self._conn.close()
