"""Batched OOSM posting: ``post_reports`` and ``ReportBatchPosted``.

The batch path must be *observably equivalent* to per-report posting:
subscribers see the same reports in the same order whether the model
publishes one batch event (when someone subscribed to batches) or N
per-report events (when nobody did).
"""

import pytest

from repro.common.errors import OosmError
from repro.oosm import ReportBatchPosted, ReportPosted, build_chilled_water_ship
from repro.protocol import FailurePredictionReport


def report(obj, i=0):
    return FailurePredictionReport(
        knowledge_source_id="ks:dli",
        sensed_object_id=obj,
        machine_condition_id="mc:motor-imbalance",
        severity=0.5,
        belief=0.4,
        timestamp=float(i),
    )


def make_model():
    model, ship, units = build_chilled_water_ship(n_chillers=1)
    return model, units[0]


def test_post_reports_publishes_one_batch_event_when_subscribed():
    model, unit = make_model()
    batches, singles = [], []
    model.bus.subscribe(ReportBatchPosted, batches.append)
    model.bus.subscribe(ReportPosted, singles.append)
    reports = [report(unit.motor, i) for i in range(5)]
    model.post_reports(reports)
    assert len(batches) == 1
    assert list(batches[0].reports) == reports
    assert singles == []  # batch subscriber present: no per-report fanout


def test_post_reports_falls_back_to_per_report_events():
    model, unit = make_model()
    singles = []
    model.bus.subscribe(ReportPosted, singles.append)
    reports = [report(unit.motor, i) for i in range(4)]
    model.post_reports(reports)
    # No batch subscriber: same reports, same order, one event each.
    assert [e.report for e in singles] == reports


def test_post_reports_unknown_object_is_all_or_nothing():
    model, unit = make_model()
    seen = []
    model.bus.subscribe(ReportPosted, seen.append)
    bad = [report(unit.motor, 0), report("obj:ghost", 1)]
    with pytest.raises(OosmError):
        model.post_reports(bad)
    # Validation happens before any event.
    assert seen == []


def test_post_reports_empty_batch_is_a_noop():
    model, unit = make_model()
    batches = []
    model.bus.subscribe(ReportBatchPosted, batches.append)
    model.post_reports([])
    assert batches == []
