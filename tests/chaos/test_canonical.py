"""The ISSUE acceptance drill: the canonical chaos scenario must end
with zero lost and zero duplicated reports at the OOSM, every breaker
re-closed, and degraded (not absent) reporting while quarantined."""

import pytest

from repro.chaos import ChaosEngine, canonical_scenario, run_scenario
from repro.obs import use_registry
from repro.supervisor import BreakerState
from repro.system import build_mpros_system


@pytest.fixture(scope="module")
def drill():
    """One canonical run, shared by every assertion below."""
    scenario = canonical_scenario(seed=7)
    with use_registry() as registry:
        system = build_mpros_system(n_chillers=2, seed=scenario.seed)
        engine = ChaosEngine(system, scenario)
        report = engine.run()
    return system, engine, report, registry


def test_exactly_once_at_the_oosm(drill):
    system, _, report, _ = drill
    assert report.produced > 0
    assert report.lost == 0
    assert report.duplicated == 0
    assert report.shed == 0
    assert report.rejected == 0
    # Conservation closes exactly: everything produced is at the OOSM
    # or still queued (the final in-flight batch).
    assert report.at_oosm + report.backlog == report.produced
    # The mid-flight crash really exercised the replay path: at least
    # one report was recovered from the DC database and its replay
    # absorbed PDME-side as a duplicate.
    assert report.recovered_reports > 0
    assert report.duplicate_acks >= report.recovered_reports
    assert system.pdme.duplicates_dropped == report.duplicate_acks


def test_breakers_all_reclosed(drill):
    system, _, report, _ = drill
    assert report.breakers_closed
    assert all(b.state is BreakerState.CLOSED for b in system.breakers)
    # The partition actually tripped dc:0's breaker along the way.
    assert any(new == "open" for _, _, new in system.breakers[0].transitions)


def test_degraded_reports_while_quarantined(drill):
    system, _, report, _ = drill
    assert report.degraded > 0
    dc = system.dcs[0]
    assert dc.reports_degraded == report.degraded
    events = [(what, channel) for _, channel, what in dc.quarantine.events]
    assert ("quarantined", 0) in events
    assert ("released", 0) in events
    # Degraded reports crossed the wire with the flag intact.
    flagged = [
        r for r in system.pdme.router.reports_for(system.units[0].motor) if r.degraded
    ]
    assert len(flagged) == report.degraded
    # Quarantine over: the DC went back to full-evidence reporting.
    assert not dc.quarantine.active()


def test_crash_detected_and_recovered(drill):
    system, _, report, _ = drill
    trans = [(dc, old, new) for _, dc, old, new in report.heartbeat_transitions]
    assert ("dc:1", "suspect", "down") in trans
    assert ("dc:1", "down", "alive") in trans
    # Every scheduled fault recovered before the scenario ended.
    assert all(f.recovery_seconds is not None for f in report.faults)
    assert report.ok
    assert "PASS" in report.summary()


def test_registry_sees_the_supervision_layer(drill):
    _, _, _, registry = drill
    snap = registry.snapshot()
    assert snap["counters"]["supervisor.heartbeat.received{dc=dc:0}"] > 0
    assert snap["counters"]["supervisor.quarantine.events{dc=dc:0}"] == 2.0
    assert snap["counters"]["dc.uplink.recovered{dc=dc:1}"] > 0
    assert snap["gauges"]["supervisor.breaker.state{breaker=dc:0}"] == 0.0
    assert "dc.uplink.backlog{dc=dc:0}" in snap["gauges"]


def test_canonical_run_is_deterministic():
    with use_registry():
        a = run_scenario(canonical_scenario(seed=7))
    with use_registry():
        b = run_scenario(canonical_scenario(seed=7))
    assert (a.produced, a.at_oosm, a.degraded, a.duplicate_acks) == (
        b.produced, b.at_oosm, b.degraded, b.duplicate_acks
    )
    assert a.heartbeat_transitions == b.heartbeat_transitions
    assert a.quarantine_events == b.quarantine_events
