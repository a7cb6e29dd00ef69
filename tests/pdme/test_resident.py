"""§5.7 PDME-resident model-based diagnostics."""

import pytest

from repro.netsim import EventKernel
from repro.oosm import build_chilled_water_ship
from repro.pdme import PdmeExecutive
from repro.pdme.resident import ModelBasedDiagnostics, attach_resident_analyzer
from repro.protocol import FailurePredictionReport


def rep(obj, cond, belief=0.8, ks="ks:fuzzy", t=1.0):
    return FailurePredictionReport(
        knowledge_source_id=ks,
        sensed_object_id=obj,
        machine_condition_id=cond,
        severity=0.6,
        belief=belief,
        timestamp=t,
    )


@pytest.fixture
def world():
    model, ship, units = build_chilled_water_ship(n_chillers=2)
    pdme = PdmeExecutive(model)
    return model, ship, units, pdme


def test_quiet_ship_produces_nothing(world):
    model, ship, units, pdme = world
    analyzer = ModelBasedDiagnostics(model, pdme.engine)
    assert analyzer.scan(now=10.0) == []


def test_root_cause_promotion(world):
    """Downstream oil contamination + upstream gear wear → reinforce
    the source diagnosis."""
    model, ship, units, pdme = world
    u = units[0]
    pdme.submit(rep(u.gearset, "mc:gear-tooth-wear", 0.8))
    pdme.submit(rep(u.compressor, "mc:oil-contamination", 0.6))
    analyzer = ModelBasedDiagnostics(model, pdme.engine)
    reports = analyzer.scan(now=20.0)
    promoted = [r for r in reports if r.sensed_object_id == u.gearset]
    assert promoted
    assert promoted[0].machine_condition_id == "mc:gear-tooth-wear"
    assert "model-based" in promoted[0].explanation


def test_common_cause_across_separate_chillers(world):
    """The same condenser fouling on both chillers points at the shared
    cooling-water supply — a conclusion no single DC could reach."""
    model, ship, units, pdme = world
    for u in units:
        pdme.submit(rep(u.motor, "mc:condenser-fouling", 0.8))
    analyzer = ModelBasedDiagnostics(model, pdme.engine)
    reports = analyzer.scan(now=30.0)
    common = [r for r in reports
              if r.machine_condition_id == "mc:cooling-water-supply-fouling"]
    assert common
    assert common[0].sensed_object_id == ship.id
    assert "separate units" in common[0].explanation


def test_single_unit_is_not_a_common_cause(world):
    model, ship, units, pdme = world
    pdme.submit(rep(units[0].motor, "mc:condenser-fouling", 0.9))
    analyzer = ModelBasedDiagnostics(model, pdme.engine)
    assert all(
        r.machine_condition_id != "mc:cooling-water-supply-fouling"
        for r in analyzer.scan(now=30.0)
    )


def test_conclusions_are_one_shot_until_reset(world):
    model, ship, units, pdme = world
    for u in units:
        pdme.submit(rep(u.motor, "mc:condenser-fouling", 0.8))
    analyzer = ModelBasedDiagnostics(model, pdme.engine)
    assert analyzer.scan(now=30.0)
    assert analyzer.scan(now=31.0) == []
    analyzer.reset()
    assert analyzer.scan(now=32.0)


def test_scheduled_scan_feeds_back_into_fusion(world):
    model, ship, units, pdme = world
    kernel = EventKernel()
    attach_resident_analyzer(pdme, period=300.0, kernel=kernel)
    for u in units:
        pdme.submit(rep(u.motor, "mc:condenser-fouling", 0.8))
    kernel.run_until(700.0)
    # The resident conclusion was posted, stored and fused.
    ship_reports = pdme.router.reports_for(ship.id)
    assert any(
        r.machine_condition_id == "mc:cooling-water-supply-fouling"
        for r in ship_reports
    )
    suspects = pdme.engine.suspects(threshold=0.5)
    assert any(c == "mc:cooling-water-supply-fouling" for _, c, _ in suspects)
