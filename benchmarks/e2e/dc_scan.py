"""Workload ``dc_scan``: the DC cycle alone, closed loop.

One ``DataConcentrator`` with four machines (the ``build_fleet_specs``
default ``machines_per_dc``), its default DLI + fuzzy + SBFR suites and
a list as its report sink.  Each cycle calls the cycle's public methods
directly: ``run_vibration_tests(t)`` + ``run_process_scan(t)`` +
``rms_alarm_scan()`` at 60-sim-s steps, the paper's §6.3 cycle budget.
``dsp``, ``hpc``, ``algorithms`` and ``sbfr`` do the work here while
``pdme``, ``fusion``, ``oosm`` and ``gateway`` do none, so an
optimisation of those layers should leave this workload unchanged.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any

from benchmarks.e2e.common import latency_metrics, rate_metric, sha256_text, wall
from benchmarks.e2e.instrument import instrument_dc, instrument_dsp
from benchmarks.e2e.metrics import counter_deltas
from benchmarks.e2e.pool import POOL_SIZE, PooledSimulator, synthesize_pool
from benchmarks.e2e.ship import FAULTS
from benchmarks.e2e.spans import Tracer

MACHINES = 4
STEP_SIM_S = 60.0
#: Closed-loop cycles per requested second: 1,000 at 20 s.  The loop runs
#: about this fast here; a fixed count keeps the work, and so the report
#: stream and memory, the same whatever the host's speed.
CYCLES_PER_S = 50
WARMUP_CYCLES = 20
SMOKE_CYCLES = 30


def sizes(seconds: float, smoke: bool) -> dict[str, Any]:
    return {
        "machines": MACHINES,
        "cycles": SMOKE_CYCLES if smoke else int(seconds * CYCLES_PER_S),
        "warmup_cycles": WARMUP_CYCLES,
        "step_sim_s": STEP_SIM_S,
        "pool_blocks_per_length": POOL_SIZE,
    }


def prepare(seed: int, sizes: dict[str, Any], tracer: Tracer | None, workdir: Any) -> Any:
    from repro.common.rng import derive_rng, make_rng
    from repro.dc.concentrator import DataConcentrator
    from repro.netsim.kernel import EventKernel
    from repro.obs.registry import MetricsRegistry
    from repro.plant.chiller import ChillerSimulator
    from repro.plant.faults import FaultKind, seeded

    registry = MetricsRegistry()
    root = make_rng(seed)
    reports: list[Any] = []
    dc = DataConcentrator(
        dc_id="dc:0",
        kernel=EventKernel(metrics=registry),
        sink=reports.append,
        rng=derive_rng(root, "dc"),
        metrics=registry,
    )
    t_inputs = wall()
    seeded_pairs = set()
    # All eight faults, two per machine; the seed picks the pairing.  Every
    # seed then asks the suites for the same work, where four of eight
    # faults made the cycle cost depend on which four were drawn.
    order = derive_rng(root, "faults").permutation(len(FAULTS))
    for i in range(MACHINES):
        sim = ChillerSimulator(rng=derive_rng(root, "chiller", i))
        machine_id = f"obj:chiller-{i}"
        for pick in order[i::MACHINES]:
            kind = FaultKind[FAULTS[int(pick)]]
            sim.inject(seeded(kind, onset=0.0, severity=0.8))
            seeded_pairs.add((machine_id, kind.condition_id))
        machine = dc.attach_machine(machine_id, f"A/C Compressor Motor {i + 1}", sim, i)
        machine.simulator = PooledSimulator(sim, synthesize_pool(sim))
    inputs_s = wall() - t_inputs
    state = SimpleNamespace(
        dc=dc,
        registry=registry,
        reports=reports,
        seeded=seeded_pairs,
        cycles=sizes["cycles"],
        tracer=tracer,
        inputs_s=inputs_s,
        excluded_s=inputs_s,
        t=0.0,
    )
    if tracer is not None:
        instrument_dc(tracer, dc)
        instrument_dsp(tracer)
        state.cycle = tracer.wrap("bench.harness", _cycle, root=True)
    else:
        state.cycle = _cycle
    for _ in range(WARMUP_CYCLES):
        state.cycle(state)
    return state


def _cycle(state: Any) -> None:
    state.t += STEP_SIM_S
    state.dc.run_vibration_tests(state.t)
    state.dc.run_process_scan(state.t)
    state.dc.rms_alarm_scan()


def measure(state: Any) -> None:
    tracer = state.tracer
    times = []
    before = state.registry.snapshot()
    n_reports = len(state.reports)
    if tracer is not None:
        tracer.active = True
    for _ in range(state.cycles):
        t = wall()
        state.cycle(state)
        times.append(wall() - t)
    if tracer is not None:
        tracer.active = False
    state.window = SimpleNamespace(
        times=times, before=before, after=state.registry.snapshot(),
        reports=len(state.reports) - n_reports,
    )


def finish(state: Any) -> dict[str, Any]:
    from repro.protocol.canonical import canonical_json

    w = state.window
    reported = {(r.sensed_object_id, r.machine_condition_id) for r in state.reports}
    deltas = counter_deltas(w.before, w.after)
    # Each scan dispatches every suite once over the whole machine list.
    invocations = (WARMUP_CYCLES + len(w.times)) * 2 * len(state.dc.sources)
    errors = len(state.dc.source_errors)
    return {
        "metrics": {
            "analyses_per_s": rate_metric([MACHINES] * len(w.times), w.times, "analyses/s"),
            **latency_metrics("cycle", w.times),
        },
        "checks": {
            "each_seeded_condition_reported": state.seeded <= reported,
            "no_source_errors": errors == 0,
        },
        "attempted": invocations,
        "failed": errors,
        "digest": sha256_text(canonical_json(state.reports)),
        "busy_s": sum(w.times),
        "counts": {
            "dc.reports": float(w.reports),
            "algorithms.source_errors": deltas.get("dc.source_errors", 0.0),
            "bench.inputs_s": state.inputs_s,
        },
    }
