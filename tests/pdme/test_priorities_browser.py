"""Edge cases for the priority list and the Fig. 2 browser.

The ISSUE-5 hot-path work made ``suspects()`` a memoized view and the
priority list a consumer of lazy prognoses — these tests pin the
behaviors that rewrite must not disturb: empty inputs, exact urgency
ties, and stale (time-disordered) reports reaching the temporal view.
"""

import pytest

from repro.obs import MetricsRegistry
from repro.oosm import build_chilled_water_ship
from repro.pdme import PdmeExecutive, prioritize, render_machine_screen, render_priority_list
from repro.protocol import FailurePredictionReport, PrognosticVector


def make_pdme():
    model, ship, units = build_chilled_water_ship(n_chillers=2)
    pdme = PdmeExecutive(model, metrics=MetricsRegistry())
    return model, pdme, units


def report(obj, cond="mc:motor-imbalance", belief=0.6, sev=0.5, t=10.0,
           ks="ks:dli", pairs=()):
    return FailurePredictionReport(
        knowledge_source_id=ks,
        sensed_object_id=obj,
        machine_condition_id=cond,
        severity=sev,
        belief=belief,
        timestamp=t,
        prognostic=PrognosticVector.from_pairs(list(pairs)),
    )


# -- empty condition list -------------------------------------------------------------

def test_priorities_empty_engine():
    model, pdme, units = make_pdme()
    assert pdme.priorities(now=0.0) == []
    assert prioritize(pdme.engine) == []


def test_priorities_all_below_floor_is_empty():
    model, pdme, units = make_pdme()
    pdme.submit(report(units[0].motor, belief=0.1))
    assert prioritize(pdme.engine, belief_floor=0.2) == []


def test_render_priority_list_empty():
    text = render_priority_list([])
    assert "no suspect components" in text


def test_browser_screen_no_reports_no_state():
    model, pdme, units = make_pdme()
    text = render_machine_screen(pdme, units[0].motor)
    assert "(none)" in text
    assert "(no fused state)" in text


# -- tied priorities ------------------------------------------------------------------

def test_tied_priorities_keep_both_entries_deterministically():
    model, pdme, units = make_pdme()
    # Identical evidence on two different machines: urgencies tie exactly.
    pdme.submit(report(units[0].motor, belief=0.6, sev=0.5, t=10.0))
    pdme.submit(report(units[1].motor, belief=0.6, sev=0.5, t=10.0))
    entries = pdme.priorities(now=10.0)
    tied = [e for e in entries if e.machine_condition_id == "mc:motor-imbalance"]
    assert len(tied) == 2
    assert tied[0].urgency == pytest.approx(tied[1].urgency)
    # The ordering of an exact tie is stable across repeated queries.
    again = pdme.priorities(now=10.0)
    assert [
        (e.sensed_object_id, e.machine_condition_id) for e in entries
    ] == [(e.sensed_object_id, e.machine_condition_id) for e in again]


# -- stale-report filtering -----------------------------------------------------------

def test_stale_report_skipped_by_temporal_view_not_fusion():
    model, pdme, units = make_pdme()
    motor = units[0].motor
    pdme.submit(report(motor, belief=0.7, t=100.0))
    # Time-disordered arrival (§5.1): older than what temporal has seen.
    pdme.submit(report(motor, belief=0.7, t=50.0, ks="ks:wnn"))
    # Fusion accepts both reports ...
    assert pdme.metrics.counter("pdme.conclusions").value == 2
    assert pdme.report_count() == 2
    # ... the temporal tracker only advanced on the in-order one ...
    tracker = pdme.temporal.tracker(motor, "mc:motor-imbalance")
    assert tracker._last_time == 100.0
    # ... and the priority list still ranks the fused suspect.
    entries = pdme.priorities(now=100.0)
    assert any(
        e.sensed_object_id == motor
        and e.machine_condition_id == "mc:motor-imbalance"
        for e in entries
    )


def test_browser_screen_after_stale_report_lists_both():
    model, pdme, units = make_pdme()
    motor = units[0].motor
    pdme.submit(report(motor, belief=0.7, t=100.0))
    pdme.submit(report(motor, belief=0.5, t=50.0, ks="ks:wnn"))
    text = render_machine_screen(pdme, motor, now=100.0)
    # Both stored reports are shown, newest-seen state is fused.
    assert "2 report(s) from 2 knowledge source(s)" in text
    assert "mc:motor-imbalance" in text
