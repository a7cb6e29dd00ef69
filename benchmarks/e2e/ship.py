"""Workload ``ship``: the full Figure-1 path under live traffic, paced open loop.

Eight chillers, one DC each, per-report uplink RPC through the circuit
breaker, one ``PdmeExecutive`` posting into the OOSM and fusing.  The
benchmark advances ``kernel.run_until`` in 1-sim-second slices, each due
at ``SPEED`` times real time, so scans fall due on a fixed schedule
whether or not the system keeps up: a slower build shows up as report
latency and backlog rather than as a lighter load.  All eight DCs fire
at the same simulated instant, so one slow DC delays the rest.
"""

from __future__ import annotations

import math
from collections import Counter
from types import SimpleNamespace
from typing import Any

from benchmarks.e2e.common import latency_metrics, rate_metric, sha256_text, wall
from benchmarks.e2e.instrument import instrument_dc, instrument_dsp
from benchmarks.e2e.metrics import counter_deltas, counter_totals
from benchmarks.e2e.pacer import OpenLoop
from benchmarks.e2e.pool import POOL_SIZE, PooledSimulator, synthesize_pool
from benchmarks.e2e.spans import Tracer

#: Simulated seconds per wall second.  A vibration instant's burst of
#: eight DC cycles takes about 75 ms here and the next scan instant is
#: 60 sim-s later; at 400x that leaves room for the host to run twice as
#: slow before bursts overlap and latency stops scaling linearly.
SPEED = 400.0
CHILLERS = 8
VIBRATION_PERIOD_S = 120.0
#: With process scans every 30 s, reports from process-only instants
#: (about 10 ms) and from vibration instants (about 70 ms) split nearly
#: evenly, so the median report sat on the cliff between the two and
#: swung by half its value from run to run.  At 60 s about three in four
#: reports come from vibration instants and both quantiles fall inside
#: that mode.
PROCESS_PERIOD_S = 60.0
#: Run unpaced before the measured window (counts toward ``setup_s``).
WARMUP_SIM_S = 240.0
SMOKE_HORIZON_SIM_S = 480.0
#: One seeded fault per chiller; the seed permutes the assignment.
FAULTS = (
    "MOTOR_IMBALANCE",
    "BEARING_WEAR",
    "SHAFT_MISALIGNMENT",
    "REFRIGERANT_LEAK",
    "CONDENSER_FOULING",
    "OIL_PRESSURE_LOW",
    "MOTOR_ROTOR_BAR",
    "GEAR_TOOTH_WEAR",
)
DRAIN_STEP_SIM_S = 60.0
DRAIN_STEPS = 20


def sizes(seconds: float, smoke: bool) -> dict[str, Any]:
    return {
        "chillers": CHILLERS,
        "speed_x": SPEED,
        "horizon_sim_s": SMOKE_HORIZON_SIM_S if smoke else float(round(seconds * SPEED)),
        "warmup_sim_s": WARMUP_SIM_S,
        "vibration_period_s": VIBRATION_PERIOD_S,
        "process_period_s": PROCESS_PERIOD_S,
        "pool_blocks_per_length": POOL_SIZE,
    }


def instrument(tracer: Tracer, system: Any) -> None:
    import repro.dc.uplink as uplink_module
    import repro.pdme.executive as executive_module

    tracer.patch(system.kernel, "run_until", "netsim.kernel", root=True)
    for dc, uplink in zip(system.dcs, system.uplinks):
        instrument_dc(tracer, dc)
        tracer.patch(dc, "sink", "uplink.submit")
        # uplink.endpoint is the breaker-guarded facade; .endpoint under it
        # is the DC's RpcEndpoint, which the facade calls at call time.
        tracer.patch(uplink.endpoint.endpoint, "call", "netsim.rpc")
        beat = dc.scheduler.task("heartbeat")
        beat.action = tracer.wrap("supervisor.heartbeat", beat.action, root=True)
    tracer.patch(system.monitor, "beat", "supervisor.heartbeat")
    tracer.patch(system.monitor, "sweep", "supervisor.heartbeat", root=True)
    tracer.patch(system.pdme, "submit", "pdme.executive", root=True)
    tracer.patch(system.model, "post_report", "oosm.post")
    tracer.patch(system.pdme.engine, "ingest", "fusion.ingest")
    tracer.patch(executive_module, "decode_report", "protocol.decode")
    tracer.patch(uplink_module, "encode_report", "protocol.encode")
    instrument_dsp(tracer)


def prepare(seed: int, sizes: dict[str, Any], tracer: Tracer | None, workdir: Any) -> Any:
    from repro.common.rng import make_rng
    from repro.obs.registry import MetricsRegistry
    from repro.oosm.events import ReportPosted
    from repro.plant.faults import FaultKind, seeded
    from repro.system import build_mpros_system

    registry = MetricsRegistry()
    system = build_mpros_system(
        n_chillers=CHILLERS,
        seed=seed,
        vibration_period=VIBRATION_PERIOD_S,
        process_period=PROCESS_PERIOD_S,
        metrics=registry,
    )
    t_inputs = wall()
    seeded_pairs = set()
    for unit, i in zip(system.units, make_rng(seed).permutation(len(FAULTS))):
        kind = FaultKind[FAULTS[int(i)]]
        system.inject_fault(unit.primary, seeded(kind, onset=0.0, severity=0.8))
        seeded_pairs.add((unit.primary, kind.condition_id))
    for dc in system.dcs:
        for machine in dc.machines.values():
            machine.simulator = PooledSimulator(
                machine.simulator, synthesize_pool(machine.simulator)
            )
    inputs_s = wall() - t_inputs
    # Registered after the executive's handler, so it sees each report
    # at the moment fusion has finished with it.
    fused: list[tuple[float, Any]] = []
    system.model.bus.subscribe(
        ReportPosted, lambda event: fused.append((wall(), event.report))
    )
    if tracer is not None:
        instrument(tracer, system)
    system.kernel.run_until(WARMUP_SIM_S)
    return SimpleNamespace(
        system=system,
        registry=registry,
        fused=fused,
        seeded=seeded_pairs,
        steps=int(sizes["horizon_sim_s"]),
        tracer=tracer,
        inputs_s=inputs_s,
        excluded_s=inputs_s,
    )


def measure(state: Any) -> None:
    system, tracer = state.system, state.tracer
    kernel = system.kernel
    sim0 = kernel.now()
    pacer = OpenLoop(1.0 / SPEED)
    busy: list[float] = []
    backlog_max = 0
    before = state.registry.snapshot()
    if tracer is not None:
        tracer.active = True
    pacer.start()
    for k in range(1, state.steps + 1):
        pacer.wait(k)
        t = wall()
        kernel.run_until(sim0 + k)
        busy.append(wall() - t)
        backlog_max = max(backlog_max, system.uplink_backlog())
    if tracer is not None:
        tracer.active = False
    state.window = SimpleNamespace(
        sim0=sim0, pacer=pacer, busy=busy, backlog_max=backlog_max,
        before=before, after=state.registry.snapshot(),
    )
    # Drain, unpaced: stop new scans and let every queued report land.
    for dc in system.dcs:
        dc.scheduler.suspend()
    for _ in range(DRAIN_STEPS):
        if system.uplink_backlog() == 0:
            break
        kernel.run_until(kernel.now() + DRAIN_STEP_SIM_S)


def finish(state: Any) -> dict[str, Any]:
    from repro.protocol.canonical import canonical_dumps
    from repro.protocol.wire import to_json

    system, w = state.system, state.window
    # Every report a DC produced is in its database; compare as multisets
    # of wire JSON, since two suites may report the same condition at the
    # same instant.
    produced = Counter(
        to_json(r)
        for dc in system.dcs
        for machine_id in dc.machines
        for r in dc.database.reports_for(machine_id)
    )
    fused = Counter(to_json(r) for _, r in state.fused)
    missing = sum((produced - fused).values())
    extra = sum((fused - produced).values())
    refused = int(counter_totals(state.registry.snapshot()).get("pdme.reports_refused", 0))
    bus_errors = len(system.model.bus.delivery_errors)
    end = w.sim0 + state.steps
    in_window = [(t, r) for t, r in state.fused if w.sim0 < r.timestamp <= end]
    latencies = [t - w.pacer.due(r.timestamp - w.sim0) for t, r in in_window]
    # Slice k covers simulated time (sim0 + k - 1, sim0 + k].
    fused_per_slice = [0] * state.steps
    for _, r in in_window:
        fused_per_slice[math.ceil(r.timestamp - w.sim0) - 1] += 1
    detected = {(p.sensed_object_id, p.machine_condition_id) for p in system.pdme.priorities()}
    deltas = counter_deltas(w.before, w.after)
    return {
        "metrics": {
            **latency_metrics("report_latency", latencies),
            "realtime_x": rate_metric([1.0] * state.steps, w.busy, "sim-s/s"),
            "fused_per_busy_s": rate_metric(fused_per_slice, w.busy, "reports/s"),
        },
        "checks": {
            "every_report_fused_exactly_once": produced == fused,
            "no_refused_reports_or_delivery_errors": refused == 0 and bus_errors == 0,
            "all_seeded_faults_in_priorities": state.seeded <= detected,
        },
        "attempted": sum(produced.values()),
        "failed": missing + extra + refused + bus_errors,
        "digest": sha256_text(canonical_dumps(system.pdme.fused_model())),
        "busy_s": sum(w.busy),
        "counts": {
            "dc.reports": deltas.get("dc.reports_produced", 0.0),
            "algorithms.source_errors": deltas.get("dc.source_errors", 0.0),
            "netsim.kernel.events": deltas.get("netsim.kernel.executed", 0.0),
            "netsim.frames_sent": deltas.get("netsim.link.frames_sent", 0.0),
            "netsim.frames_dropped": deltas.get("netsim.link.frames_dropped", 0.0),
            "uplink.retries": deltas.get("dc.uplink.retries", 0.0),
            "uplink.backlog_max": w.backlog_max,
            "supervisor.breaker.rejected": deltas.get("supervisor.breaker.fast_fails", 0.0),
            "pdme.duplicates": deltas.get("pdme.duplicates_dropped", 0.0),
            "pdme.refused": deltas.get("pdme.reports_refused", 0.0),
            "bench.inputs_s": state.inputs_s,
            "bench.lag_max_ms": w.pacer.lag_max * 1000.0,
        },
    }
