import math

import numpy as np
import pytest

from repro.common.units import months, weeks
from repro.netsim import EventKernel, LinkConfig, Network, RpcEndpoint
from repro.obs import MetricsRegistry
from repro.oosm import ShipModel, build_chilled_water_ship
from repro.pdme import PdmeExecutive, prioritize, render_machine_screen, render_priority_list
from repro.pdme.priorities import urgency_score
from repro.protocol import FailurePredictionReport, PrognosticVector
from repro.protocol.wire import encode_report


def make_pdme():
    model, ship, units = build_chilled_water_ship(n_chillers=1)
    pdme = PdmeExecutive(model, metrics=MetricsRegistry())
    return model, pdme, units[0]


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


# -- §5.1 loop -------------------------------------------------------------------

def test_submit_posts_to_oosm_and_fuses():
    model, pdme, unit = make_pdme()
    pdme.submit(report(unit.motor))
    assert pdme.report_count() == 1
    assert pdme.router.reports_for(unit.motor) == [report(unit.motor)]
    assert pdme.metrics.counter("pdme.conclusions").value == 1
    state = pdme.engine.diagnostic.state(unit.motor, "rotating-mechanical")
    assert state.beliefs["mc:motor-imbalance"] == pytest.approx(0.6)


def test_reinforcing_sources_fuse():
    model, pdme, unit = make_pdme()
    pdme.submit(report(unit.motor, ks="ks:dli", belief=0.6))
    pdme.submit(report(unit.motor, ks="ks:wnn", belief=0.6))
    state = pdme.engine.diagnostic.state(unit.motor, "rotating-mechanical")
    assert state.beliefs["mc:motor-imbalance"] == pytest.approx(1 - 0.16)


# -- RPC intake ---------------------------------------------------------------------

def make_rpc_pdme(drop_rate=0.0, seed=0):
    kernel = EventKernel()
    net = Network(kernel, np.random.default_rng(seed))
    net.connect("dc:0", "pdme", LinkConfig(latency=0.01, drop_rate=drop_rate))
    dc_ep = RpcEndpoint("dc:0", net, kernel, timeout=0.2, retries=4)
    pdme_ep = RpcEndpoint("pdme", net, kernel)
    model, ship, units = build_chilled_water_ship(n_chillers=1)
    pdme = PdmeExecutive(model)
    pdme.serve_on(pdme_ep)
    return kernel, dc_ep, pdme, units[0]


def test_report_over_rpc():
    kernel, dc_ep, pdme, unit = make_rpc_pdme()
    acks = []
    dc_ep.call("pdme", "post_report", encode_report(report(unit.motor)),
               on_reply=acks.append)
    kernel.run()
    assert acks == [{"accepted": True}]
    assert pdme.report_count() == 1


def test_report_over_lossy_link_retries():
    kernel, dc_ep, pdme, unit = make_rpc_pdme(drop_rate=0.4, seed=3)
    dc_ep.call("pdme", "post_report", encode_report(report(unit.motor)))
    kernel.run()
    assert pdme.report_count() == 1


def test_malformed_wire_report_rejected_not_fatal():
    kernel, dc_ep, pdme, unit = make_rpc_pdme()
    acks = []
    dc_ep.call("pdme", "post_report", {"garbage": True}, on_reply=acks.append)
    kernel.run()
    assert acks[0]["accepted"] is False
    assert acks[0]["error"]
    assert pdme.report_count() == 0


def test_report_for_unknown_object_rejected_gracefully():
    kernel, dc_ep, pdme, _ = make_rpc_pdme()
    acks = []
    dc_ep.call("pdme", "post_report", encode_report(report("obj:ghost")),
               on_reply=acks.append)
    kernel.run()
    assert acks[0]["accepted"] is False


# -- priorities -----------------------------------------------------------------------

def test_urgency_monotone():
    base = urgency_score(0.5, 0.5, months(1))
    assert urgency_score(0.9, 0.5, months(1)) > base
    assert urgency_score(0.5, 0.9, months(1)) > base
    assert urgency_score(0.5, 0.5, weeks(1)) > base
    assert urgency_score(0.5, 0.5, math.inf) < base


def test_priority_list_ranks_imminent_first():
    model, pdme, unit = make_pdme()
    pdme.submit(report(unit.motor, cond="mc:motor-imbalance", belief=0.8, sev=0.5,
                       pairs=[(months(6), 0.5)]))
    pdme.submit(report(unit.pump, cond="mc:bearing-wear", belief=0.8, sev=0.5,
                       pairs=[(weeks(1), 0.5)]))
    entries = pdme.priorities(now=10.0)
    assert entries[0].machine_condition_id == "mc:bearing-wear"
    assert entries[0].urgency > entries[1].urgency


def test_priority_floor_filters_weak_beliefs():
    model, pdme, unit = make_pdme()
    pdme.submit(report(unit.motor, belief=0.1))
    assert prioritize(pdme.engine, belief_floor=0.2) == []


# -- browser (Fig. 2) ----------------------------------------------------------------

def test_browser_screen_mirrors_fig2():
    """Six reports from four sources on 'A/C Compressor Motor 1', some
    conflicting, some reinforcing — then fused predictions."""
    model, pdme, unit = make_pdme()
    motor = unit.motor
    # Reinforcing: three sources call imbalance.
    pdme.submit(report(motor, "mc:motor-imbalance", 0.6, ks="ks:dli",
                       pairs=[(months(3), 0.5)]))
    pdme.submit(report(motor, "mc:motor-imbalance", 0.5, ks="ks:wnn"))
    pdme.submit(report(motor, "mc:motor-imbalance", 0.4, ks="ks:sbfr"))
    # Conflicting: one source calls misalignment (same group).
    pdme.submit(report(motor, "mc:shaft-misalignment", 0.7, ks="ks:fuzzy"))
    # Different group entirely.
    pdme.submit(report(motor, "mc:motor-rotor-bar", 0.5, ks="ks:dli"))
    pdme.submit(report(motor, "mc:oil-contamination", 0.45, ks="ks:fuzzy"))

    screen = render_machine_screen(pdme, motor, now=10.0)
    assert "A/C Compressor Motor 1" in screen
    assert "6 report(s) from 4 knowledge source(s)" in screen
    assert "mc:motor-imbalance" in screen
    assert "[rotating-mechanical]" in screen
    assert "[electrical]" in screen
    assert "[lubricant]" in screen
    assert "unknown:" in screen
    assert "TTF" in screen


def test_browser_empty_machine():
    model, pdme, unit = make_pdme()
    screen = render_machine_screen(pdme, unit.motor)
    assert "(none)" in screen
    assert "(no fused state)" in screen


def test_priority_list_rendering():
    model, pdme, unit = make_pdme()
    pdme.submit(report(unit.motor, belief=0.9, pairs=[(weeks(2), 0.5)]))
    text = render_priority_list(pdme.priorities(now=10.0))
    assert "1." in text and "mc:motor-imbalance" in text
    empty = render_priority_list([])
    assert "no suspect components" in empty


def test_temporal_analyzer_fed_from_conclusions():
    """§10.1 temporal reasoning rides the conclusion stream: an
    intermittent condition's episodes are visible to the PDME."""
    model, pdme, unit = make_pdme()
    motor = unit.motor
    # Three belief pulses: strong report, then a retraction-ish weak one.
    t = 0.0
    for gap in (100.0, 50.0, 25.0):
        pdme.submit(report(motor, belief=0.9, t=t))
        pdme.engine.diagnostic.reset(motor, "rotating-mechanical")
        pdme.submit(report(motor, belief=0.05, t=t + 5.0))
        pdme.engine.diagnostic.reset(motor, "rotating-mechanical")
        t += gap
    tracker = pdme.temporal.tracker(motor, "mc:motor-imbalance")
    assert len(tracker.episodes) >= 2
    acc = tracker.acceleration()
    assert acc < 0.9  # recurrence is accelerating


def test_accelerating_episodes_raise_priority():
    """An intermittent condition with accelerating recurrence outranks
    a steady one of equal belief/severity: its temporal projection
    supplies an earlier conservative TTF."""
    model, pdme, unit = make_pdme()
    motor, pump = unit.motor, unit.pump

    def pulse(obj, cond, t, close=True):
        pdme.submit(report(obj, cond=cond, belief=0.9, t=t))
        group = pdme.engine.diagnostic._registry.group_of(cond).name
        if close:
            pdme.engine.diagnostic.reset(obj, group)
            pdme.submit(report(obj, cond=cond, belief=0.05, t=t + 1.0))
            pdme.engine.diagnostic.reset(obj, group)

    # Accelerating episodes on the motor: intervals 400, 200, 100; the
    # final pulse stays open (belief stays high for the suspects list).
    for t in (0.0, 400.0, 600.0):
        pulse(motor, "mc:motor-imbalance", t)
    pulse(motor, "mc:motor-imbalance", 700.0, close=False)
    # Steady episodes on the pump: intervals 400, 400, 400.
    for t in (0.0, 400.0, 800.0):
        pulse(pump, "mc:bearing-wear", t)
    pulse(pump, "mc:bearing-wear", 1200.0, close=False)

    entries = pdme.priorities(now=1250.0)
    by_cond = {e.machine_condition_id: e for e in entries}
    accel = by_cond["mc:motor-imbalance"]
    steady = by_cond["mc:bearing-wear"]
    assert accel.time_to_failure < steady.time_to_failure
    assert accel.urgency > steady.urgency


def test_browser_labels_conflicting_and_reinforcing():
    model, pdme, unit = make_pdme()
    motor = unit.motor
    pdme.submit(report(motor, "mc:motor-imbalance", 0.8, ks="ks:dli"))
    pdme.submit(report(motor, "mc:motor-imbalance", 0.8, ks="ks:wnn"))
    screen = render_machine_screen(pdme, motor, now=20.0)
    assert "reinforcing" in screen
    pdme.submit(report(motor, "mc:shaft-misalignment", 0.8, ks="ks:fuzzy"))
    screen = render_machine_screen(pdme, motor, now=20.0)
    assert "conflicting (K=" in screen
