"""The DC's relational database (§5.8).

Stores "all of the instrumentation configuration information, machinery
configuration information, test schedules, resultant measurements,
diagnostic results, and condition reports"; sqlite3 stands in for the
original commercial ODBC database.  ``:memory:`` is the default so a DC
can run diskless; pass a path for persistence.
"""

from __future__ import annotations

import json
import math
import sqlite3
from pathlib import Path
from typing import Any

from repro.common.errors import MprosError, ProtocolError
from repro.protocol.report import FailurePredictionReport
from repro.protocol.wire import decode_report, report_text

_SCHEMA = """
CREATE TABLE IF NOT EXISTS instrumentation (
    channel     INTEGER PRIMARY KEY,     -- global acquisition channel
    sensor_id   TEXT NOT NULL,
    machine_id  TEXT NOT NULL,
    kind        TEXT NOT NULL,           -- accelerometer / rtd / ...
    rms_alarm   REAL                     -- programmed RMS threshold
);
CREATE TABLE IF NOT EXISTS machinery (
    machine_id  TEXT PRIMARY KEY,
    name        TEXT NOT NULL,
    config      TEXT NOT NULL            -- JSON kinematics etc.
);
CREATE TABLE IF NOT EXISTS test_schedules (
    name        TEXT PRIMARY KEY,
    period_s    REAL NOT NULL,
    kind        TEXT NOT NULL            -- vibration / process / ...
);
CREATE TABLE IF NOT EXISTS measurements (
    seq         INTEGER PRIMARY KEY AUTOINCREMENT,
    time_s      REAL NOT NULL,
    channel     INTEGER,
    machine_id  TEXT,
    kind        TEXT NOT NULL,           -- rms / peak / process key
    value       REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS condition_reports (
    seq         INTEGER PRIMARY KEY AUTOINCREMENT,
    time_s      REAL NOT NULL,
    machine_id  TEXT NOT NULL,
    payload     TEXT NOT NULL            -- §7 wire JSON
);
CREATE TABLE IF NOT EXISTS uplink_backlog (
    seq         INTEGER PRIMARY KEY AUTOINCREMENT,
    report_id   TEXT UNIQUE NOT NULL,    -- uplink-assigned exactly-once id
    payload     TEXT NOT NULL            -- §7 wire JSON + report_id
);
CREATE TABLE IF NOT EXISTS scheduler_cursors (
    name        TEXT PRIMARY KEY,        -- scheduler task name
    runs        INTEGER NOT NULL,
    last_run    REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_meas_machine ON measurements(machine_id, kind);
CREATE INDEX IF NOT EXISTS idx_reports_machine ON condition_reports(machine_id);
"""


def _reject_constant(name: str) -> Any:
    raise ValueError(f"non-finite number {name}")


def _finite_float(text: str) -> float:
    # ``1e400`` is valid JSON that ``float`` reads as infinity.
    value = float(text)
    if math.isfinite(value):
        return value
    raise ValueError(f"non-finite number {text}")


def _load_object(table: str, text: Any) -> dict[str, Any]:
    """Parse one stored JSON object column.

    ``NaN``, ``±Infinity`` and numbers that overflow a float (``1e400``)
    are refused: every value the DC writes is finite, so one in a row
    means the file was damaged or edited.  Any corrupt row becomes an
    :class:`MprosError` naming its table.
    """
    try:
        value = json.loads(
            text, parse_float=_finite_float, parse_constant=_reject_constant
        )
    except (TypeError, ValueError) as exc:
        raise MprosError(f"corrupt row in DC database table {table}: {exc}") from None
    if not isinstance(value, dict):
        raise MprosError(
            f"corrupt row in DC database table {table}: "
            f"expected a JSON object, got {type(value).__name__}"
        )
    return value


class DcDatabase:
    """The DC store with a typed API over the relational tables."""

    def __init__(self, path: str | Path = ":memory:") -> None:
        self._conn = sqlite3.connect(str(path))
        self._conn.executescript(_SCHEMA)

    def close(self) -> None:
        """Close the underlying connection."""
        self._conn.close()

    # -- configuration -----------------------------------------------------
    def register_channel(
        self,
        channel: int,
        sensor_id: str,
        machine_id: str,
        kind: str,
        rms_alarm: float | None = None,
    ) -> None:
        """Record one instrumentation binding."""
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO instrumentation VALUES (?, ?, ?, ?, ?)",
                (channel, sensor_id, machine_id, kind, rms_alarm),
            )

    def channels_for(self, machine_id: str) -> list[tuple[int, str, str]]:
        """(channel, sensor_id, kind) rows for one machine."""
        rows = self._conn.execute(
            "SELECT channel, sensor_id, kind FROM instrumentation WHERE machine_id = ?",
            (machine_id,),
        ).fetchall()
        return [(int(c), s, k) for c, s, k in rows]

    def register_machine(self, machine_id: str, name: str, config: dict[str, Any]) -> None:
        """Record machinery configuration."""
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO machinery VALUES (?, ?, ?)",
                (machine_id, name, json.dumps(config)),
            )

    def machine_config(self, machine_id: str) -> dict[str, Any]:
        """Stored configuration for a machine."""
        row = self._conn.execute(
            "SELECT config FROM machinery WHERE machine_id = ?", (machine_id,)
        ).fetchone()
        if row is None:
            raise MprosError(f"no machine {machine_id!r} in DC database")
        return _load_object("machinery", row[0])

    def machines(self) -> list[str]:
        """All registered machine ids."""
        return [r[0] for r in self._conn.execute("SELECT machine_id FROM machinery")]

    def register_schedule(self, name: str, period_s: float, kind: str) -> None:
        """Record a test schedule entry."""
        if period_s <= 0:
            raise MprosError("schedule period must be positive")
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO test_schedules VALUES (?, ?, ?)",
                (name, period_s, kind),
            )

    def schedules(self) -> list[tuple[str, float, str]]:
        """All schedule rows."""
        return [
            (n, float(p), k)
            for n, p, k in self._conn.execute("SELECT * FROM test_schedules")
        ]

    # -- measurements ---------------------------------------------------------
    def store_measurement(
        self,
        time_s: float,
        kind: str,
        value: float,
        channel: int | None = None,
        machine_id: str | None = None,
    ) -> None:
        """Append one scalar measurement."""
        with self._conn:
            self._conn.execute(
                "INSERT INTO measurements (time_s, channel, machine_id, kind, value) "
                "VALUES (?, ?, ?, ?, ?)",
                (time_s, channel, machine_id, kind, value),
            )

    def store_measurements(
        self, rows: list[tuple[float, str, float, int | None, str | None]]
    ) -> None:
        """Bulk append (time, kind, value, channel, machine_id) rows."""
        with self._conn:
            self._conn.executemany(
                "INSERT INTO measurements (time_s, channel, machine_id, kind, value) "
                "VALUES (?, ?, ?, ?, ?)",
                [(t, c, m, k, v) for (t, k, v, c, m) in rows],
            )

    def measurement_history(
        self, machine_id: str, kind: str, limit: int = 100
    ) -> list[tuple[float, float]]:
        """Latest (time, value) pairs for one machine/kind, oldest first."""
        rows = self._conn.execute(
            "SELECT time_s, value FROM measurements "
            "WHERE machine_id = ? AND kind = ? ORDER BY seq DESC LIMIT ?",
            (machine_id, kind, limit),
        ).fetchall()
        return [(float(t), float(v)) for t, v in reversed(rows)]

    def measurement_count(self) -> int:
        """Total stored measurement rows."""
        return int(self._conn.execute("SELECT COUNT(*) FROM measurements").fetchone()[0])

    # -- condition reports -------------------------------------------------------
    def store_reports(self, reports: list[FailurePredictionReport]) -> None:
        """Append §7 condition reports, in order, in one transaction."""
        with self._conn:
            self._conn.executemany(
                "INSERT INTO condition_reports (time_s, machine_id, payload) VALUES (?, ?, ?)",
                [(r.timestamp, r.sensed_object_id, report_text(r)) for r in reports],
            )

    def reports_for(self, machine_id: str) -> list[FailurePredictionReport]:
        """All stored reports about one machine, oldest first."""
        rows = self._conn.execute(
            "SELECT payload FROM condition_reports WHERE machine_id = ? ORDER BY seq",
            (machine_id,),
        ).fetchall()
        try:
            return [decode_report(_load_object("condition_reports", p)) for (p,) in rows]
        except ProtocolError as exc:
            raise MprosError(
                f"corrupt row in DC database table condition_reports: {exc}"
            ) from None

    def report_count(self) -> int:
        """Total stored condition reports."""
        return int(
            self._conn.execute("SELECT COUNT(*) FROM condition_reports").fetchone()[0]
        )

    # -- uplink backlog persistence (crash/restart recovery) -----------------
    def uplink_put(self, report_id: str, payload: dict[str, Any]) -> None:
        """Persist one unacknowledged uplink report under its id."""
        if not report_id:
            raise MprosError("uplink report_id must be non-empty")
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO uplink_backlog (report_id, payload) VALUES (?, ?)",
                (report_id, json.dumps(payload)),
            )

    def uplink_delete(self, report_id: str) -> None:
        """Drop one report from the persisted backlog (it was acked,
        rejected, or deliberately shed)."""
        with self._conn:
            self._conn.execute(
                "DELETE FROM uplink_backlog WHERE report_id = ?", (report_id,)
            )

    def uplink_rows(self) -> list[tuple[str, dict[str, Any]]]:
        """Persisted (report_id, wire payload) rows, oldest first."""
        rows = self._conn.execute(
            "SELECT report_id, payload FROM uplink_backlog ORDER BY seq"
        ).fetchall()
        return [(rid, _load_object("uplink_backlog", p)) for rid, p in rows]

    def uplink_count(self) -> int:
        """Persisted backlog size."""
        return int(
            self._conn.execute("SELECT COUNT(*) FROM uplink_backlog").fetchone()[0]
        )

    def uplink_oldest_timestamp(self) -> float | None:
        """Timestamp of the oldest report in the persisted backlog
        (``None`` when empty).

        Lets a restarting DC size its catch-up window *before* calling
        ``recover()``: backlog age bounds how much replay is worth doing
        versus shedding against the staleness cutoff.  Every payload is
        §7 wire JSON, so the timestamp is extracted in SQL instead of
        decoding the whole backlog.
        """
        row = self._conn.execute(
            "SELECT MIN(CAST(json_extract(payload, '$.timestamp') AS REAL)) "
            "FROM uplink_backlog"
        ).fetchone()
        return float(row[0]) if row and row[0] is not None else None

    # -- scheduler cursors (crash/restart recovery) --------------------------
    def save_scheduler_cursor(self, name: str, runs: int, last_run: float) -> None:
        """Persist one task's progress cursor after a run."""
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO scheduler_cursors VALUES (?, ?, ?)",
                (name, int(runs), float(last_run)),
            )

    def scheduler_cursors(self) -> dict[str, tuple[int, float]]:
        """All persisted task cursors as ``name -> (runs, last_run)``."""
        rows = self._conn.execute("SELECT name, runs, last_run FROM scheduler_cursors")
        return {name: (int(runs), float(last)) for name, runs, last in rows}
