"""End-to-end integration: the Figure-1 pipeline on one kernel."""

import numpy as np
import pytest

from repro import build_mpros_system
from repro.common.errors import MprosError
from repro.netsim.network import LinkConfig
from repro.plant import FaultKind
from repro.plant.faults import seeded


def test_build_validates():
    with pytest.raises(MprosError):
        build_mpros_system(n_chillers=0)


def test_healthy_system_stays_quiet():
    system = build_mpros_system(n_chillers=1, seed=1)
    system.run(hours=0.5)
    assert system.reports_received() == 0
    assert system.priority_screen().count("no suspect components") == 1


def test_fault_flows_dc_to_pdme_to_browser():
    system = build_mpros_system(n_chillers=2, seed=0)
    motor = system.units[0].motor
    system.inject_fault(motor, seeded(FaultKind.MOTOR_IMBALANCE, onset=0.0, severity=0.9))
    system.run(hours=1.0)

    # Reports crossed the network and landed in the OOSM.
    assert system.reports_received() > 0
    reports = system.pdme.router.reports_for(motor)
    assert any(r.machine_condition_id == "mc:motor-imbalance" for r in reports)
    assert all(r.dc_id == "dc:0" for r in reports)

    # Knowledge fusion produced a suspect and a priority entry.
    suspects = system.pdme.engine.suspects(threshold=0.5)
    assert any(c == "mc:motor-imbalance" and o == motor for o, c, _ in suspects)
    priorities = system.pdme.priorities(now=system.kernel.now())
    assert priorities[0].machine_condition_id == "mc:motor-imbalance"

    # The browser screen shows both halves of Fig. 2.
    screen = system.browser_screen(motor)
    assert "mc:motor-imbalance" in screen
    assert "Fused failure predictions" in screen

    # The healthy second chiller accumulated nothing.
    other = system.units[1].motor
    assert system.pdme.router.reports_for(other) == []


def test_gateway_over_the_executive_router_serves_the_fused_model():
    """The DC uplink stores and fuses through the router the gateway
    serves: its fleet document is the executive's fused model, and
    each DC report was announced on the model's bus exactly once,
    after it fused."""
    from repro.gateway.service import FleetGateway
    from repro.oosm.events import ReportPosted
    from repro.protocol.canonical import canonical_dumps

    system = build_mpros_system(n_chillers=2, seed=0)
    motor = system.units[0].motor
    system.inject_fault(motor, seeded(FaultKind.MOTOR_IMBALANCE, onset=0.0, severity=0.9))
    announced = []
    system.model.bus.subscribe(
        ReportPosted,
        lambda event: announced.append(
            (event.report, system.pdme.engine.stats.ingested)
        ),
    )
    system.run(hours=1.0)
    gateway = FleetGateway(system.model, system.pdme.router)
    assert gateway.fleet_health_json() == canonical_dumps(system.pdme.fused_model())
    assert len(announced) == system.reports_received() > 0
    assert [r for r, _ in announced if r.sensed_object_id == motor] == (
        system.pdme.router.reports_for(motor)
    )
    # Each announcement came after its report (and every earlier one)
    # was fused.
    assert [seen for _, seen in announced] == list(range(1, len(announced) + 1))
    assert system.model.bus.delivery_errors == []


def test_process_fault_detected_by_nonvibration_suites():
    system = build_mpros_system(n_chillers=1, seed=2)
    motor = system.units[0].motor
    system.inject_fault(motor, seeded(FaultKind.REFRIGERANT_LEAK, onset=600.0, severity=0.9))
    system.run(hours=1.5)
    conditions = {r.machine_condition_id for r in system.pdme.router.reports_for(motor)}
    assert "mc:refrigerant-leak" in conditions
    sources = {r.knowledge_source_id for r in system.pdme.router.reports_for(motor)}
    assert sources & {"ks:fuzzy", "ks:sbfr"}


def test_multiple_sources_reinforce_through_fusion():
    system = build_mpros_system(n_chillers=1, seed=3)
    motor = system.units[0].motor
    system.inject_fault(motor, seeded(FaultKind.REFRIGERANT_LEAK, onset=0.0, severity=0.95))
    system.run(hours=2.0)
    reports = system.pdme.router.reports_for(motor)
    sources = {r.knowledge_source_id for r in reports
               if r.machine_condition_id == "mc:refrigerant-leak"}
    assert len(sources) >= 2  # fuzzy and SBFR both called it
    state = system.pdme.engine.diagnostic.state(motor, "refrigeration")
    single = max(r.belief for r in reports
                 if r.machine_condition_id == "mc:refrigerant-leak")
    # Reinforcement: fused belief at least matches the strongest single
    # source and is essentially certain after repeated agreement.
    assert state.beliefs["mc:refrigerant-leak"] >= single
    assert state.beliefs["mc:refrigerant-leak"] > 0.95


def test_lossy_link_still_converges():
    system = build_mpros_system(
        n_chillers=1, seed=4, link=LinkConfig(latency=0.01, drop_rate=0.3)
    )
    motor = system.units[0].motor
    system.inject_fault(motor, seeded(FaultKind.MOTOR_IMBALANCE, onset=0.0, severity=0.9))
    system.run(hours=1.0)
    assert system.reports_received() > 0


def test_determinism_across_identical_builds():
    a = build_mpros_system(n_chillers=1, seed=7)
    b = build_mpros_system(n_chillers=1, seed=7)
    for s in (a, b):
        s.inject_fault(s.units[0].motor,
                       seeded(FaultKind.MOTOR_IMBALANCE, onset=0.0, severity=0.9))
        s.run(hours=1.0)
    assert a.reports_received() == b.reports_received()
    ra = [r.summary() for r in a.pdme.router.workers[0].store.all_reports()]
    rb = [r.summary() for r in b.pdme.router.workers[0].store.all_reports()]
    assert ra == rb


def test_network_outage_store_and_forward():
    """§4.9: a DC disconnected from the PDME holds its reports and
    delivers them after the link recovers."""
    system = build_mpros_system(n_chillers=1, seed=5)
    motor = system.units[0].motor
    system.inject_fault(motor, seeded(FaultKind.MOTOR_IMBALANCE, onset=0.0, severity=0.9))

    system.set_network_outage(0, down=True)
    system.run(hours=1.0)
    assert system.reports_received() == 0           # nothing got through
    backlog_during = system.uplink_backlog()
    assert backlog_during > 0                        # but nothing was lost

    system.set_network_outage(0, down=False)
    system.run(hours=0.25)                           # scheduled flush runs
    assert system.uplink_backlog() == 0
    assert system.reports_received() >= backlog_during


def test_pdme_drops_duplicate_reports():
    system = build_mpros_system(
        n_chillers=1, seed=6, link=LinkConfig(latency=0.01, drop_rate=0.5)
    )
    motor = system.units[0].motor
    system.inject_fault(motor, seeded(FaultKind.MOTOR_IMBALANCE, onset=0.0, severity=0.9))
    system.run(hours=2.0)
    # Lossy acks force retransmissions; fused report count equals the
    # number of *distinct* reports, not transmissions.
    assert system.reports_received() > 0
    assert system.pdme.duplicates_dropped >= 0
    stats = system.network.stats()
    assert stats["dropped"] > 0


def test_emi_corrupted_link_never_corrupts_reports():
    """Bit flips on the ship's network are caught by the frame CRC:
    every report the PDME fuses is byte-identical to one a DC sent."""
    system = build_mpros_system(
        n_chillers=1, seed=8, link=LinkConfig(latency=0.01, corrupt_rate=0.3)
    )
    motor = system.units[0].motor
    system.inject_fault(motor, seeded(FaultKind.MOTOR_IMBALANCE, onset=0.0, severity=0.9))
    system.run(hours=1.5)
    assert system.network.stats()["corrupted"] > 0
    received = system.pdme.router.reports_for(motor)
    assert received
    # All fused reports are structurally sound and from the real DC.
    for r in received:
        assert r.dc_id == "dc:0"
        assert 0.0 <= r.belief <= 1.0
        assert r.machine_condition_id.startswith("mc:")
