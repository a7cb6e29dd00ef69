"""Property test: batched OOSM ingest is equivalent to one-at-a-time.

Hypothesis generates arbitrary report streams with arbitrary duplicate
patterns (repeated ids, id-less entries) and arbitrary batch splits;
the coalesced :meth:`ReportStore.ingest_batch` path must leave the
store byte-identical (via the canonical wire form) to one
single-report batch per report in the same order, and report as
written exactly the reports those single batches accepted.
"""

from hypothesis import given, settings, strategies as st

from repro.oosm.persistence import ReportStore
from repro.protocol.canonical import canonical_json
from repro.protocol.report import FailurePredictionReport


def _report(i: int) -> FailurePredictionReport:
    return FailurePredictionReport(
        knowledge_source_id="ks:prop",
        sensed_object_id=f"obj:m{i % 3}",
        machine_condition_id="mc:motor-imbalance",
        severity=0.5,
        belief=0.25 + 0.01 * (i % 7),
        timestamp=float(i),
        dc_id="dc:prop",
    )


# Each element: (report index, id slot or None).  A small id space
# forces duplicate ids both across and within batches.
_entries = st.lists(
    st.tuples(st.integers(0, 9), st.one_of(st.none(), st.integers(0, 4))),
    min_size=0,
    max_size=20,
)


@settings(max_examples=50, deadline=None)
@given(_entries, st.integers(min_value=1, max_value=7))
def test_ingest_batch_byte_identical_to_scalar(entries, batch_size):
    reports = [_report(i) for i, _ in entries]
    ids = [None if slot is None else f"dc:prop#{slot}" for _, slot in entries]

    scalar = ReportStore()
    written_scalar = [
        scalar.ingest_batch([r], [rid]) == [0] for r, rid in zip(reports, ids)
    ]

    # The batch reports the positions it wrote: exactly the reports the
    # scalar path accepted.
    batched = ReportStore()
    written_batched: list[bool] = []
    for s in range(0, len(reports), batch_size):
        written = batched.ingest_batch(
            reports[s : s + batch_size], ids[s : s + batch_size]
        )
        size = len(reports[s : s + batch_size])
        written_batched += [i in written for i in range(size)]
        assert written == sorted(written)

    assert written_batched == written_scalar
    assert canonical_json(batched.all_reports()) == canonical_json(
        scalar.all_reports()
    )
    assert batched.count == scalar.count
    assert [rid for _, rid, _ in batched.rows()] == [
        rid for _, rid, _ in scalar.rows()
    ]
    scalar.close()
    batched.close()
