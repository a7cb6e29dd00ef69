"""FIG1: the full MPROS pipeline.

Sensors -> DC (algorithm suites) -> ship network (RPC) -> PDME (OOSM +
knowledge fusion) -> prioritized list, on one discrete-event kernel.
Measures wall-clock cost per simulated hour and the end-to-end report
flow for a mixed fault scenario.
"""

from benchmarks._util import mean_seconds, sim_per_wall_second

from repro import build_mpros_system
from repro.netsim.network import LinkConfig
from repro.plant.faults import FaultKind, seeded



def test_end_to_end_hour(benchmark):
    """One simulated hour, two chillers, one vibration + one process
    fault: the whole Figure-1 flow."""

    def scenario():
        system = build_mpros_system(n_chillers=2, seed=0)
        system.inject_fault(
            system.units[0].motor, seeded(FaultKind.MOTOR_IMBALANCE, 0.0, 0.9)
        )
        system.inject_fault(
            system.units[1].motor, seeded(FaultKind.REFRIGERANT_LEAK, 0.0, 0.9)
        )
        system.run(hours=1.0)
        return system

    system = benchmark.pedantic(scenario, rounds=3, iterations=1)
    reports = system.pdme.router.workers[0].store.all_reports()
    assert reports, "no reports crossed the pipeline"
    conditions = {r.machine_condition_id for r in reports}
    assert "mc:motor-imbalance" in conditions
    assert "mc:refrigerant-leak" in conditions
    priorities = system.pdme.priorities(now=system.kernel.now())
    assert len(priorities) >= 2
    benchmark.extra_info["reports_received"] = len(reports)
    benchmark.extra_info["sim_hours_per_wall_second"] = round(
        sim_per_wall_second(benchmark, 1.0), 2
    )
    benchmark.extra_info["top_priority"] = priorities[0].machine_condition_id


def test_end_to_end_lossy_shipboard_network(benchmark):
    """Same flow over a degraded link (§4.9's shipboard conditions):
    the pipeline still converges, at lower delivery rates."""

    def scenario():
        system = build_mpros_system(
            n_chillers=1, seed=1,
            link=LinkConfig(latency=0.05, jitter=0.1, drop_rate=0.3),
        )
        system.inject_fault(
            system.units[0].motor, seeded(FaultKind.MOTOR_IMBALANCE, 0.0, 0.9)
        )
        system.run(hours=1.0)
        return system

    system = benchmark.pedantic(scenario, rounds=2, iterations=1)
    assert system.reports_received() > 0
    stats = system.network.stats()
    benchmark.extra_info["frames_sent"] = stats["sent"]
    benchmark.extra_info["frames_dropped"] = stats["dropped"]
    benchmark.extra_info["reports_received"] = system.reports_received()


def test_report_uplink_rate(benchmark):
    """Steady-state report intake rate at the PDME (reports/s through
    RPC + OOSM + fusion) — the PDME-side scalability number.

    Each round builds a fresh world (fusion state grows with history,
    so reusing one PDME across rounds would measure accumulation, not
    steady state) and posts 100 reports with distinct timestamps
    (identical retransmissions are deduplicated at intake, which is
    not the path under test).
    """
    import numpy as np

    from repro.netsim import EventKernel, Network, RpcEndpoint
    from repro.oosm import build_chilled_water_ship
    from repro.pdme import PdmeExecutive
    from repro.protocol import FailurePredictionReport, PrognosticVector
    from repro.protocol.wire import encode_report

    def setup():
        kernel = EventKernel()
        net = Network(kernel, np.random.default_rng(0))
        dc_ep = RpcEndpoint("dc:0", net, kernel)
        pdme_ep = RpcEndpoint("pdme", net, kernel)
        model, ship, units = build_chilled_water_ship(n_chillers=1)
        pdme = PdmeExecutive(model)
        pdme.serve_on(pdme_ep)
        payloads = [
            encode_report(
                FailurePredictionReport(
                    knowledge_source_id="ks:dli",
                    sensed_object_id=units[0].motor,
                    machine_condition_id="mc:motor-imbalance",
                    severity=0.5,
                    belief=0.3,
                    timestamp=float(i + 1),
                    prognostic=PrognosticVector.from_pairs([(3600.0, 0.5)]),
                )
            )
            for i in range(100)
        ]
        return (kernel, dc_ep, payloads), {}

    def post_100(kernel, dc_ep, payloads):
        for payload in payloads:
            dc_ep.call("pdme", "post_report", payload)
        kernel.run()

    benchmark.pedantic(post_100, setup=setup, rounds=5, iterations=1)
    rate = 100 / mean_seconds(benchmark)
    benchmark.extra_info["reports_per_second"] = f"{rate:,.0f}"
