"""Report rows read back from disk go through the finite-only parser.

A row edited on disk to hold a non-finite number, an overflowing
literal, or JSON that is not an object is refused with ``OosmError``
by every reader of the log: the shard replay view (``rows``),
``all_reports``, per-object reads, the column upgrade of an older log,
``load_model`` moving a legacy ``reports`` table into the log and the
gateway's report pages and measurement series.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.common.errors import OosmError
from repro.gateway.replica import ReadReplica
from repro.gateway.service import PAGE_MEMO_ROWS, FleetGateway
from repro.obs.registry import MetricsRegistry
from repro.oosm.model import ShipModel
from repro.oosm.persistence import ReportStore, load_model, load_payload, save_model
from repro.protocol.prognostic import PrognosticVector
from repro.protocol.report import FailurePredictionReport
from repro.protocol.wire import encode_report, report_text


def _report(t: float = 100.0) -> FailurePredictionReport:
    return FailurePredictionReport(
        knowledge_source_id="ks:dli",
        sensed_object_id="obj:m0",
        machine_condition_id="mc:motor-imbalance",
        severity=0.5,
        belief=0.4,
        timestamp=t,
        prognostic=PrognosticVector.from_pairs([(3600.0, 0.2), (7200.0, 0.6)]),
    )


def _edited(field: str, literal: str) -> str:
    """A valid payload with one field's value replaced by ``literal``."""
    doc = encode_report(_report())
    doc[field] = "@@"
    return json.dumps(doc).replace('"@@"', literal)


CORRUPT = {
    "nan": _edited("belief", "NaN"),
    "infinity": _edited("severity", "-Infinity"),
    "overflow": _edited("timestamp", "1e400"),
    "overflow-in-curve": _edited("prognostic", "[[3600.0, 1e400]]"),
    "array": "[1, 2, 3]",
    "string": '"report"',
    "broken": '{"v": 1',
}


@pytest.fixture(params=sorted(CORRUPT), ids=sorted(CORRUPT))
def corrupt(request) -> str:
    return CORRUPT[request.param]


def test_load_payload_reads_a_stored_row():
    doc = load_payload(json.dumps(encode_report(_report())))
    assert doc == json.loads(json.dumps(encode_report(_report())))


def test_load_payload_refuses_a_corrupt_row(corrupt):
    with pytest.raises(OosmError, match="stored report"):
        load_payload(corrupt)


def _store_with_one_bad_row(tmp_path, payload: str) -> ReportStore:
    path = tmp_path / "log.sqlite"
    store = ReportStore(path)
    store.ingest_batch([_report(1.0), _report(2.0)], ["a", "b"])
    conn = sqlite3.connect(str(path))
    with conn:
        conn.execute("UPDATE report_log SET payload = ? WHERE report_id = 'b'", (payload,))
    conn.close()
    return store


def _log_gateway(tmp_path) -> FleetGateway:
    """A gateway paging the log at ``tmp_path/log.sqlite`` through a
    read replica, as the served deployment does."""
    model = ShipModel()
    model.create("rotating-machine", id="obj:m0")
    replica = ReadReplica([tmp_path / "log.sqlite"])
    return FleetGateway(model, None, replica=replica, metrics=MetricsRegistry())


def test_log_readers_refuse_a_corrupt_row(tmp_path, corrupt):
    store = _store_with_one_bad_row(tmp_path, corrupt)
    try:
        with pytest.raises(OosmError):
            store.rows()
        with pytest.raises(OosmError):
            store.all_reports()
        with pytest.raises(OosmError):
            store.reports_for("obj:m0")
        gateway = _log_gateway(tmp_path)
        # The good row still pages; the page holding the bad one fails.
        assert [item.report_id for item in gateway.reports(None, 1).items] == ["a"]
        with pytest.raises(OosmError):
            gateway.reports(None, 2)
        assert [m.time for m in gateway.measurements("obj:m0", limit=1).items] == [1.0]
        with pytest.raises(OosmError):
            gateway.measurements("obj:m0", limit=2)
    finally:
        store.close()
    # A log from before the sensed-object column fills it from each
    # payload on open, through the same parser.
    old = tmp_path / "old.sqlite"
    conn = sqlite3.connect(str(old))
    with conn:
        conn.execute(
            "CREATE TABLE report_log (seq INTEGER PRIMARY KEY AUTOINCREMENT, "
            "report_id TEXT UNIQUE, payload TEXT NOT NULL, intake_seq INTEGER)"
        )
        conn.execute("INSERT INTO report_log (payload) VALUES (?)", (corrupt,))
    conn.close()
    with pytest.raises(OosmError):
        ReportStore(old)


def _legacy_model_file(tmp_path, payloads: list[str]):
    """A model file as saved while the model still retained reports:
    the structure tables plus a ``reports`` table holding ``payloads``."""
    model = ShipModel()
    model.create("rotating-machine", id="obj:m0")
    path = tmp_path / "model.sqlite"
    save_model(model, path)
    conn = sqlite3.connect(str(path))
    with conn:
        conn.execute(
            "CREATE TABLE reports (seq INTEGER PRIMARY KEY AUTOINCREMENT, "
            "payload TEXT NOT NULL)"
        )
        conn.executemany("INSERT INTO reports (payload) VALUES (?)", [(p,) for p in payloads])
    conn.close()
    return path


def test_load_model_refuses_a_corrupt_report_row(tmp_path, corrupt):
    path = _legacy_model_file(tmp_path, [report_text(_report(1.0)), corrupt])
    with pytest.raises(OosmError):
        load_model(path)
    # Refused before any write: the legacy rows stay, none moved.
    conn = sqlite3.connect(str(path))
    tables = {name for (name,) in conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'")}
    stored = conn.execute("SELECT payload FROM reports ORDER BY seq").fetchall()
    conn.close()
    assert "report_log" not in tables
    assert stored == [(report_text(_report(1.0)),), (corrupt,)]


def test_load_model_moves_legacy_reports_into_the_log(tmp_path):
    reports = [_report(1.0), _report(2.0)]
    path = _legacy_model_file(tmp_path, [report_text(r) for r in reports])
    model = load_model(path)
    assert model.get("obj:m0").type_name == "rotating-machine"
    # A second load finds nothing left to move.
    load_model(path)
    store = ReportStore(path)
    try:
        assert store.reports_for("obj:m0") == reports
    finally:
        store.close()
    conn = sqlite3.connect(str(path))
    tables = {name for (name,) in conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'")}
    conn.close()
    assert "reports" not in tables


def test_page_memo_is_bounded_and_decodes_each_row_once(tmp_path):
    store = ReportStore(tmp_path / "log.sqlite")
    try:
        store.ingest_batch([_report(float(i)) for i in range(5)], [str(i) for i in range(5)])
        gateway = _log_gateway(tmp_path)
        first = gateway.reports(None, 5)
        again = gateway.reports(None, 5)
        assert [a.report for a in first.items] == [b.report for b in again.items]
        info = gateway._decode_row.cache_info()
        assert (info.maxsize, info.currsize, info.misses, info.hits) == (PAGE_MEMO_ROWS, 5, 5, 5)
    finally:
        store.close()


def test_a_log_without_the_object_column_upgrades_on_open(tmp_path):
    """A log written before rows carried their sensed object gains the
    column on open, filled from each payload, and answers per-object
    reads in arrival order: by the router's stamp, not by append."""
    from dataclasses import replace

    old = tmp_path / "old.sqlite"
    reports = [replace(_report(float(t)), sensed_object_id=obj) for t, obj in (
        (1.0, "obj:m0"), (2.0, "obj:m1"), (3.0, "obj:m0"), (4.0, "obj:m0"),
    )]
    conn = sqlite3.connect(str(old))
    with conn:
        conn.execute(
            "CREATE TABLE report_log (seq INTEGER PRIMARY KEY AUTOINCREMENT, "
            "report_id TEXT UNIQUE, payload TEXT NOT NULL, intake_seq INTEGER)"
        )
        # Appended out of arrival order, as a rebalance may write them.
        conn.executemany(
            "INSERT INTO report_log (report_id, payload, intake_seq) VALUES (?, ?, ?)",
            [
                (f"r{k}", json.dumps(encode_report(reports[k])), stamp)
                for k, stamp in ((2, 12), (0, 10), (1, 11), (3, 13))
            ],
        )
    conn.close()
    store = ReportStore(old)
    try:
        assert store.reports_for("obj:m0") == [reports[0], reports[2], reports[3]]
        assert store.reports_for("obj:m1") == [reports[1]]
        store.ingest_batch([replace(reports[1], timestamp=5.0)], ["r4"], [14])
        assert [r.timestamp for r in store.reports_for("obj:m1")] == [2.0, 5.0]
    finally:
        store.close()
    # The upgrade is durable: a reopen finds the column filled.
    conn = sqlite3.connect(str(old))
    filled = conn.execute(
        "SELECT report_id, sensed_object_id FROM report_log ORDER BY report_id"
    ).fetchall()
    conn.close()
    assert filled == [
        ("r0", "obj:m0"), ("r1", "obj:m1"), ("r2", "obj:m0"), ("r3", "obj:m0"),
        ("r4", "obj:m1"),
    ]
