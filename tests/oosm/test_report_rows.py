"""Report rows read back from disk go through the finite-only parser.

A row edited on disk to hold a non-finite number, an overflowing
literal, or JSON that is not an object is refused with ``OosmError``
by every reader of the log: the shard replay view (``rows``),
``all_reports``, ``load_model``'s ``reports`` table and the gateway's
report pages.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.common.errors import OosmError
from repro.gateway.service import PAGE_MEMO_ROWS, FleetGateway
from repro.obs.registry import MetricsRegistry
from repro.oosm.model import ShipModel
from repro.oosm.persistence import ReportStore, load_model, load_payload, save_model
from repro.protocol.prognostic import PrognosticVector
from repro.protocol.report import FailurePredictionReport
from repro.protocol.wire import encode_report


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


def test_log_readers_refuse_a_corrupt_row(tmp_path, corrupt):
    store = _store_with_one_bad_row(tmp_path, corrupt)
    try:
        with pytest.raises(OosmError):
            store.rows()
        with pytest.raises(OosmError):
            store.all_reports()
        gateway = FleetGateway(ShipModel(), None, store=store, metrics=MetricsRegistry())
        # The good row still pages; the page holding the bad one fails.
        assert [item.report_id for item in gateway.reports(None, 1).items] == ["a"]
        with pytest.raises(OosmError):
            gateway.reports(None, 2)
    finally:
        store.close()


def test_load_model_refuses_a_corrupt_report_row(tmp_path, corrupt):
    model = ShipModel()
    model.create("rotating-machine", id="obj:m0")
    model.post_report(_report())
    path = tmp_path / "model.sqlite"
    save_model(model, path)
    conn = sqlite3.connect(str(path))
    with conn:
        conn.execute("UPDATE reports SET payload = ?", (corrupt,))
    conn.close()
    with pytest.raises(OosmError):
        load_model(path)


def test_page_memo_is_bounded_and_decodes_each_row_once(tmp_path):
    store = ReportStore(tmp_path / "log.sqlite")
    try:
        store.ingest_batch([_report(float(i)) for i in range(5)], [str(i) for i in range(5)])
        gateway = FleetGateway(ShipModel(), None, store=store, metrics=MetricsRegistry())
        first = gateway.reports(None, 5)
        again = gateway.reports(None, 5)
        assert [a.report for a in first.items] == [b.report for b in again.items]
        info = gateway._decode_row.cache_info()
        assert (info.maxsize, info.currsize, info.misses, info.hits) == (PAGE_MEMO_ROWS, 5, 5, 5)
    finally:
        store.close()
