"""Whole-system assembly — Figure 1 in one object.

Builds the ship model, a PDME (report log + knowledge fusion) behind an
RPC endpoint, and one Data Concentrator per chiller with the algorithm
suites and standard test schedules, all on one discrete-event kernel.
``run()`` advances simulated time; reports flow DC → network → PDME
(log, fusion) → OOSM "new data" event, as §5.1 describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.common.errors import MprosError
from repro.obs.registry import MetricsRegistry

# The DC, algorithm, plant, supervisor and network stacks are imported
# inside the functions that assemble them, so a process that uses only
# part of the system (a PDME shard, the gateway) never loads the rest.
if TYPE_CHECKING:
    from repro.dc.concentrator import DataConcentrator
    from repro.dc.scheduler import EventScheduler
    from repro.dc.uplink import ReportUplink
    from repro.hpc.parallel import DcReplaySpec
    from repro.netsim.kernel import EventKernel
    from repro.netsim.network import LinkConfig, Network
    from repro.netsim.rpc import RpcEndpoint
    from repro.oosm.model import ShipModel
    from repro.oosm.shipyard import ChillerUnit, TurbineUnit
    from repro.pdme.executive import PdmeExecutive
    from repro.pdme.shard import ShardedPdme
    from repro.plant.chiller import ChillerSimulator
    from repro.plant.faults import ActiveFault
    from repro.plant.turbine import TurbineSimulator
    from repro.supervisor.breaker import CircuitBreaker
    from repro.supervisor.heartbeat import (
        DcHealth,
        HeartbeatEmitter,
        HeartbeatMonitor,
    )


@dataclass
class MprosSystem:
    """An assembled MPROS installation (simulation-backed)."""

    kernel: EventKernel
    network: Network
    model: ShipModel
    pdme: PdmeExecutive
    dcs: list[DataConcentrator]
    units: list[ChillerUnit] | list[TurbineUnit]
    simulators: dict[str, ChillerSimulator | TurbineSimulator]
    uplinks: list[ReportUplink] = field(default_factory=list)
    _dc_endpoints: list[RpcEndpoint] = field(default_factory=list)
    #: The one registry every subsystem on the DC→PDME path reports to.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: Per-DC circuit breakers guarding the DC→PDME RPC path.
    breakers: list[CircuitBreaker] = field(default_factory=list)
    #: Per-DC heartbeat emitters (run on each DC's scheduler).
    heartbeats: list[HeartbeatEmitter] = field(default_factory=list)
    #: PDME-side liveness monitor (None in hand-assembled systems).
    monitor: HeartbeatMonitor | None = None
    #: PDME-side scheduler driving the periodic heartbeat sweep.
    pdme_scheduler: EventScheduler | None = None

    def inject_fault(self, machine_id: str, fault: ActiveFault) -> None:
        """Inject a fault into the simulator monitored as ``machine_id``."""
        try:
            sim = self.simulators[machine_id]
        except KeyError:
            raise MprosError(f"no simulator bound to {machine_id!r}") from None
        sim.inject(fault)

    def run(self, hours: float = 1.0) -> None:
        """Advance the whole system by ``hours`` of simulated time."""
        if hours <= 0:
            raise MprosError("hours must be positive")
        self.kernel.run_until(self.kernel.now() + hours * 3600.0)

    # -- views ------------------------------------------------------------
    def browser_screen(self, machine_id: str) -> str:
        """The Fig. 2 browser screen for one machine."""
        from repro.pdme.browser import render_machine_screen

        return render_machine_screen(self.pdme, machine_id, now=self.kernel.now())

    def priority_screen(self) -> str:
        """The ship-wide prioritized maintenance list."""
        from repro.pdme.browser import render_priority_list

        return render_priority_list(self.pdme.priorities(now=self.kernel.now()))

    def reports_received(self) -> int:
        """Reports stored in the PDME's report log."""
        return self.pdme.report_count()

    def uplink_backlog(self) -> int:
        """Reports queued DC-side awaiting PDME acknowledgement."""
        return sum(u.backlog for u in self.uplinks)

    def metrics_snapshot(self) -> dict:
        """Deterministic JSON-ready view of every instrumented series."""
        return self.metrics.snapshot()

    def set_network_outage(self, dc_index: int, down: bool = True) -> None:
        """Cut (or restore) one DC's link to the PDME (§4.9 scenario).

        Reports produced during the outage are held in the DC's
        store-and-forward uplink and delivered after recovery by the
        scheduled flush."""
        self.network.set_down(f"dc:{dc_index}", "pdme", down)

    # -- supervised fault tolerance ---------------------------------------
    def dc_health(self) -> dict[str, DcHealth]:
        """The PDME's current liveness view of every DC."""
        return self.monitor.states() if self.monitor is not None else {}

    def crash_dc(self, dc_index: int) -> None:
        """Kill one DC process: volatile state (uplink queue, in-flight
        RPCs, backoff) is lost, the scheduler freezes, and the host
        drops off the network.  Durable state — the unacked uplink
        backlog and scheduler cursors — survives in the DC database."""
        dc = self.dcs[dc_index]
        if dc.scheduler.suspended:
            raise MprosError(f"dc:{dc_index} is already down")
        dc.scheduler.suspend()
        self._dc_endpoints[dc_index].reset()
        self.uplinks[dc_index].crash()
        self.network.set_down(f"dc:{dc_index}", "pdme", True)

    def restart_dc(self, dc_index: int) -> int:
        """Bring a crashed DC back: rejoin the network, reload the
        persisted uplink backlog (same report ids, so PDME-side dedup
        keeps delivery exactly-once at the OOSM), restore scheduler
        cursors, and resume the schedules.  Returns reports recovered."""
        dc = self.dcs[dc_index]
        if not dc.scheduler.suspended:
            raise MprosError(f"dc:{dc_index} is not down")
        self.network.set_down(f"dc:{dc_index}", "pdme", False)
        dc.restore_cursors()
        recovered = self.uplinks[dc_index].recover()
        dc.scheduler.resume()
        return recovered

    def force_restart_dc(self, dc_index: int) -> int:
        """Watchdog-driven full restart, valid from *any* DC state.

        :meth:`restart_dc` insists the DC is already down — correct for
        scripted chaos choreography, but a watchdog faces a DC it can
        only observe: wedged-running, half-crashed, or resumed without
        recovery.  This path forces the complete crash/recovery cycle —
        suspend, wipe volatile state, rejoin the network, reload the
        durable backlog (original report ids, so PDME dedup keeps
        delivery exactly-once), restore cursors, resume.  Reports in the
        volatile queue are all persisted unacked, so the wipe loses
        nothing.  Returns reports recovered."""
        dc = self.dcs[dc_index]
        if not dc.scheduler.suspended:
            dc.scheduler.suspend()
        self._dc_endpoints[dc_index].reset()
        self.uplinks[dc_index].crash()
        self.network.set_down(f"dc:{dc_index}", "pdme", False)
        dc.restore_cursors()
        recovered = self.uplinks[dc_index].recover()
        dc.scheduler.resume()
        return recovered


def build_mpros_system(
    n_chillers: int = 2,
    seed: int = 0,
    vibration_period: float = 600.0,
    process_period: float = 60.0,
    link: LinkConfig | None = None,
    heartbeat_period: float = 15.0,
    metrics: MetricsRegistry | None = None,
    plant: str = "chiller",
) -> MprosSystem:
    """Assemble the Figure-1 system.

    One DC per monitored unit; each DC monitors its unit's drive train
    through the plant simulator, runs the standard test schedule and
    uplinks §7 reports to the PDME over the simulated ship network.
    ``plant`` selects the domain: ``"chiller"`` (the paper's prototype
    chilled-water plant) or ``"turbine"`` (the gas-turbine CODLAG
    propulsion plant, with its own simulator, fuzzy rulebase and SBFR
    watch set).
    Every subsystem publishes into ``metrics`` (default: the
    process-wide registry), so ``system.metrics.snapshot()`` is the one
    observability surface for the whole DC→PDME path.

    Supervision: each DC's client RPC traffic (uplink + heartbeats) runs
    through a per-DC circuit breaker, the PDME classifies DC liveness
    from heartbeat recency, and each uplink persists its unacked backlog
    into the DC database so :meth:`MprosSystem.crash_dc` /
    :meth:`~MprosSystem.restart_dc` lose no reports.
    """
    from repro.algorithms.dli.engine import DliExpertSystem
    from repro.algorithms.fuzzy.engine import FuzzyDiagnostics
    from repro.algorithms.sbfr_source import (
        SbfrKnowledgeSource,
        default_turbine_watches,
    )
    from repro.common.rng import derive_rng, make_rng
    from repro.dc.concentrator import DataConcentrator
    from repro.dc.scheduler import EventScheduler
    from repro.dc.uplink import ReportUplink
    from repro.netsim.kernel import EventKernel
    from repro.netsim.network import Network
    from repro.netsim.rpc import RpcEndpoint
    from repro.obs.registry import default_registry
    from repro.oosm.shipyard import build_chilled_water_ship, build_codlag_ship
    from repro.pdme.executive import PdmeExecutive
    from repro.pdme.icas import register_icas_interface
    from repro.plant.chiller import ChillerSimulator
    from repro.plant.turbine import TurbineSimulator
    from repro.supervisor.breaker import CircuitBreaker, GuardedEndpoint
    from repro.supervisor.heartbeat import HeartbeatEmitter, HeartbeatMonitor

    if n_chillers < 1:
        raise MprosError("need at least one chiller")
    if plant not in ("chiller", "turbine"):
        raise MprosError(f"unknown plant {plant!r}; expected 'chiller' or 'turbine'")
    metrics = metrics if metrics is not None else default_registry()
    root = make_rng(seed)
    kernel = EventKernel(metrics=metrics)
    network = Network(kernel, derive_rng(root, "network"), metrics=metrics)
    units: list[ChillerUnit] | list[TurbineUnit]
    if plant == "turbine":
        model, ship, units = build_codlag_ship(n_trains=n_chillers)
    else:
        model, ship, units = build_chilled_water_ship(n_chillers=n_chillers)
    pdme = PdmeExecutive(model, metrics=metrics, clock=kernel.clock)
    pdme_ep = RpcEndpoint("pdme", network, kernel, metrics=metrics)
    pdme.serve_on(pdme_ep)
    register_icas_interface(pdme, pdme_ep)
    # PDME-side supervision: classify every DC from heartbeat recency.
    monitor = HeartbeatMonitor(kernel.clock, metrics=metrics)
    monitor.serve_on(pdme_ep)
    pdme_scheduler = EventScheduler(kernel, metrics=metrics, owner="pdme")
    pdme_scheduler.add_periodic(
        "heartbeat-check", heartbeat_period, lambda t: monitor.sweep(t)
    )

    dcs: list[DataConcentrator] = []
    simulators: dict[str, ChillerSimulator | TurbineSimulator] = {}
    endpoints: list[RpcEndpoint] = []
    uplinks: list[ReportUplink] = []
    breakers: list[CircuitBreaker] = []
    heartbeats: list[HeartbeatEmitter] = []
    for i, unit in enumerate(units):
        dc_name = f"dc:{i}"
        if link is not None:
            network.connect(dc_name, "pdme", link)
        dc_ep = RpcEndpoint(dc_name, network, kernel, metrics=metrics)
        endpoints.append(dc_ep)
        # All client traffic from this DC (reports *and* heartbeats)
        # shares one breaker, so heartbeats double as half-open probes.
        breaker = CircuitBreaker(kernel.clock, name=dc_name, metrics=metrics)
        breakers.append(breaker)
        guarded = GuardedEndpoint(dc_ep, breaker)
        uplink = ReportUplink(guarded, "pdme", metrics=metrics)
        uplinks.append(uplink)

        sim: ChillerSimulator | TurbineSimulator
        if plant == "turbine":
            # The turbine domain swaps the fuzzy rulebase and SBFR watch
            # set; the DLI vibration suite is kinematics-driven and
            # carries over unchanged.
            dc = DataConcentrator(
                dc_id=dc_name,
                kernel=kernel,
                sink=uplink.submit,
                rng=derive_rng(root, "dc", i),
                metrics=metrics,
                sources=[
                    DliExpertSystem(),
                    FuzzyDiagnostics.for_turbine(),
                    SbfrKnowledgeSource(watches=default_turbine_watches()),
                ],
            )
            uplink.bind_store(dc.database)
            sim = TurbineSimulator(rng=derive_rng(root, "turbine", i))
            dc.attach_machine(
                unit.primary, f"GT Power Turbine {i + 1}", sim, vibration_channel=0
            )
        else:
            dc = DataConcentrator(
                dc_id=dc_name,
                kernel=kernel,
                sink=uplink.submit,
                rng=derive_rng(root, "dc", i),
                metrics=metrics,
            )
            # Durable backlog: unacked reports survive a DC crash.
            uplink.bind_store(dc.database)
            sim = ChillerSimulator(rng=derive_rng(root, "chiller", i))
            dc.attach_machine(
                unit.primary, f"A/C Compressor Motor {i + 1}", sim, vibration_channel=0
            )
        dc.schedule_standard_tests(
            vibration_period=vibration_period, process_period=process_period
        )
        # Unattended recovery: retry unacknowledged reports each minute.
        dc.scheduler.add_periodic(
            "uplink-flush", 60.0, lambda t, u=uplink: u.flush()
        )
        # Liveness: heartbeats ride the DC scheduler, so a crashed
        # (suspended) DC goes silent exactly like a dead process would.
        emitter = HeartbeatEmitter(guarded, "pdme", metrics=metrics)
        heartbeats.append(emitter)
        monitor.register(dc_name)
        dc.scheduler.add_periodic("heartbeat", heartbeat_period, emitter.emit)
        # PDME -> DC control path (command tests, download machines).
        dc.serve_on(dc_ep)
        simulators[unit.primary] = sim
        dcs.append(dc)
    return MprosSystem(
        kernel=kernel,
        network=network,
        model=model,
        pdme=pdme,
        dcs=dcs,
        units=units,
        simulators=simulators,
        uplinks=uplinks,
        _dc_endpoints=endpoints,
        metrics=metrics,
        breakers=breakers,
        heartbeats=heartbeats,
        monitor=monitor,
        pdme_scheduler=pdme_scheduler,
    )


# -- fleet-scale replay -------------------------------------------------------

def build_fleet_specs(
    n_dcs: int = 4,
    machines_per_dc: int = 4,
    hours: float = 2.0,
    seed: int = 0,
    vibration_period: float = 600.0,
    process_period: float = 60.0,
    n_samples: int = 32768,
    faulty_dcs: int = 1,
) -> list[DcReplaySpec]:
    """Specs for the standard fleet-scale scenario.

    ``faulty_dcs`` DCs get a progressive motor imbalance on their first
    machine (onset at 10 % of the run, end-of-life at 90 %); the rest
    run healthy.  The same spec list replayed serially or across a
    process pool produces a bit-identical merged report stream.
    """
    from repro.hpc.parallel import DcReplaySpec

    if n_dcs < 1 or machines_per_dc < 1:
        raise MprosError("need n_dcs >= 1 and machines_per_dc >= 1")
    duration = hours * 3600.0
    specs = []
    for i in range(n_dcs):
        fault = i < faulty_dcs
        specs.append(
            DcReplaySpec(
                dc_index=i,
                seed=seed,
                n_machines=machines_per_dc,
                duration_s=duration,
                vibration_period=vibration_period,
                process_period=process_period,
                n_samples=n_samples,
                fault_kind="MOTOR_IMBALANCE" if fault else None,
                fault_onset=0.1 * duration,
                fault_end=0.9 * duration if fault else None,
            )
        )
    return specs


def replay_fleet_to_model(
    specs: list[DcReplaySpec], n_workers: int = 1
) -> tuple[ShipModel, ShardedPdme]:
    """Replay a fleet into a fresh OOSM and a one-shard PDME serving it.

    The PDME-side view of a fleet replay: every machine in the specs
    becomes a rotating-machine entity, and the deterministically merged
    reports are stored and fused oldest-first, exactly as a live DC →
    network → PDME run would deposit them; each machine's history is
    read back from the log (:meth:`ShardedPdme.reports_for`).
    """
    from repro.hpc.parallel import replay_fleet
    from repro.oosm.model import ShipModel
    from repro.pdme.shard import ShardedPdme

    model = ShipModel()
    for spec in specs:
        for machine_id in spec.machine_ids():
            model.create("rotating-machine", id=machine_id, name=machine_id)
    pdme = ShardedPdme(1, model=model)
    pdme.submit_batch(replay_fleet(specs, n_workers=n_workers))
    return model, pdme


def build_sharded_pdme(
    n_shards: int,
    plant: str = "chiller",
    store_dir: str | None = None,
) -> ShardedPdme:
    """A sharded PDME router for the given plant domain.

    With ``store_dir`` the partitions are file-backed (one sqlite file
    per shard — survives crash/restart drills); without it they live in
    memory.  The router is built without a model, so it announces
    nothing: its caller reads fused state and the log directly.
    """
    from repro.pdme.shard import ShardedPdme, registry_for_plant

    paths = None
    if store_dir is not None:
        base = Path(store_dir)
        base.mkdir(parents=True, exist_ok=True)
        paths = [base / f"shard-{i}.sqlite" for i in range(n_shards)]
    return ShardedPdme(
        n_shards,
        registry_factory=lambda: registry_for_plant(plant),
        store_paths=paths,
    )
