"""One ``executemany`` writes the rows the per-report inserts wrote.

``DcDatabase.store_reports`` stores a scan's reports in one statement
and one transaction.  Its rows must equal, column for column and byte
for byte, what one ``INSERT`` per report stored.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.dc import DcDatabase
from repro.protocol.wire import report_text
from tests.protocol.test_report_wire import stored_reports

_ROWS = "SELECT seq, time_s, machine_id, payload FROM condition_reports ORDER BY seq"


def _per_report_rows(reports):
    """The rows of one insert and one commit per report."""
    db = DcDatabase()
    for report in reports:
        with db._conn:
            db._conn.execute(
                "INSERT INTO condition_reports (time_s, machine_id, payload) VALUES (?, ?, ?)",
                (report.timestamp, report.sensed_object_id, report_text(report)),
            )
    rows = db._conn.execute(_ROWS).fetchall()
    db.close()
    return rows


def _bindable(report) -> bool:
    # sqlite stores UTF-8: a lone surrogate in the id column is refused
    # by both ways of writing alike.
    try:
        report.sensed_object_id.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(st.lists(stored_reports(), max_size=6), st.integers(0, 3))
def test_store_reports_rows_equal_per_report_rows(reports, earlier):
    assume(all(map(_bindable, reports)))
    db = DcDatabase()
    # Rows already there keep their place ahead of the batch.
    db.store_reports(reports[:earlier])
    db.store_reports(reports[earlier:])
    got = db._conn.execute(_ROWS).fetchall()
    db.close()
    want = _per_report_rows(reports)
    assert got == want
    assert [type(v) for row in got for v in row] == [type(v) for row in want for v in row]
