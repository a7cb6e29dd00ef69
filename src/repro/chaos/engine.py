"""The chaos engine: scenario → kernel events → resilience report.

The engine owns no randomness of its own — fault onsets come from the
scenario, the system's stochastic behaviour from its build seed — so a
chaos run is a pure function of ``(scenario, system seed)`` and a red
run replays exactly under a debugger.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace

from repro.common.errors import MprosError
from repro.chaos.scenario import ChaosAction, ChaosScenario, canonical_scenario
from repro.plant.faults import FaultKind, seeded, sensor_dropout, sensor_stuck
from repro.supervisor.breaker import BreakerState
from repro.system import MprosSystem, build_mpros_system


@dataclass(frozen=True)
class FaultOutcome:
    """One action's observed recovery, distilled from the logs."""

    kind: str
    dc_index: int
    start: float
    end: float
    #: Seconds from the fault clearing to the relevant "healthy again"
    #: signal (breaker closed / DC alive / sensor released).  0.0 when
    #: the fault never disrupted that signal; None when it never
    #: recovered before the scenario ended — a finding, not a statistic.
    recovery_seconds: float | None = None


@dataclass
class ResilienceReport:
    """What the installation did under the scheduled abuse.

    ``lost``/``duplicated`` are conservation-law numbers: every report a
    DC produced must end up at the OOSM exactly once, still be queued,
    or be *accounted* as shed/rejected.  Anything unaccounted is lost;
    over-delivery is duplication.  Both must be zero for :attr:`ok`.
    """

    scenario: str
    seed: int
    duration: float
    produced: int = 0
    at_oosm: int = 0
    backlog: int = 0
    shed: int = 0
    rejected: int = 0
    lost: int = 0
    duplicated: int = 0
    duplicate_acks: int = 0        # retries absorbed by PDME dedup
    degraded: int = 0              # reports flagged degraded=True
    recovered_reports: int = 0     # reloaded from DC databases on restart
    breaker_transitions: int = 0
    breakers_closed: bool = True
    heartbeat_transitions: list[tuple[float, str, str, str]] = field(
        default_factory=list
    )
    #: Per-DC count of down->alive recoveries (flaps) the monitor saw.
    heartbeat_flaps: dict[str, int] = field(default_factory=dict)
    quarantine_events: list[tuple[float, str, int, str]] = field(default_factory=list)
    faults: list[FaultOutcome] = field(default_factory=list)
    ack_latency_max: float = 0.0

    @property
    def ok(self) -> bool:
        """Did the run meet the survivability bar?

        ``backlog`` is deliberately not required to be zero: machinery
        faults keep producing reports right up to the final simulated
        instant, so the last batch is legitimately still in flight when
        the clock stops.  Those reports are *accounted* (the
        conservation law covers them); only unaccounted loss,
        duplication at the OOSM, shedding, or a stuck-open breaker
        fails the run."""
        return (
            self.lost == 0
            and self.duplicated == 0
            and self.shed == 0
            and self.breakers_closed
        )

    def summary(self) -> str:
        """Human-readable resilience report."""
        lines = [
            f"chaos scenario {self.scenario!r} (seed {self.seed}, "
            f"{self.duration / 3600.0:.2f} h simulated)",
            f"  reports: produced={self.produced} at_oosm={self.at_oosm} "
            f"backlog={self.backlog} shed={self.shed} rejected={self.rejected}",
            f"  conservation: lost={self.lost} duplicated={self.duplicated} "
            f"(duplicate acks absorbed: {self.duplicate_acks})",
            f"  degraded-mode reports: {self.degraded}   "
            f"recovered from DC databases: {self.recovered_reports}",
            f"  breakers: {self.breaker_transitions} transitions, "
            f"all closed: {self.breakers_closed}",
            "  heartbeat flaps: "
            + (
                ", ".join(
                    f"{dc}={n}" for dc, n in sorted(self.heartbeat_flaps.items())
                )
                or "none"
            ),
            f"  max ack latency: {self.ack_latency_max:.3f} s",
        ]
        for t, dc, old, new in self.heartbeat_transitions:
            lines.append(f"  t+{t:8.1f}s  liveness {dc}: {old} -> {new}")
        for t, dc, channel, what in self.quarantine_events:
            lines.append(f"  t+{t:8.1f}s  quarantine {dc} ch{channel}: {what}")
        for f in self.faults:
            rec = (
                "no disruption" if f.recovery_seconds == 0.0
                else "NOT RECOVERED" if f.recovery_seconds is None
                else f"recovered in {f.recovery_seconds:.1f} s"
            )
            lines.append(
                f"  fault {f.kind} on dc:{f.dc_index} "
                f"[t+{f.start:.0f}s .. t+{f.end:.0f}s]: {rec}"
            )
        lines.append(f"  verdict: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


class ChaosEngine:
    """Schedules a scenario's actions on a system's event kernel."""

    def __init__(self, system: MprosSystem, scenario: ChaosScenario) -> None:
        if scenario.max_dc_index() >= len(system.dcs):
            raise MprosError(
                f"scenario {scenario.name!r} targets dc:{scenario.max_dc_index()} "
                f"but the system has only {len(system.dcs)} DCs"
            )
        self.system = system
        self.scenario = scenario
        self.recovered_reports = 0
        self._scheduled = False
        self._windows: list[tuple[ChaosAction, float, float]] = []

    # -- individual fault choreographies ---------------------------------
    def _dc_name(self, action: ChaosAction) -> str:
        return f"dc:{action.dc_index}"

    def _begin_partition(self, action: ChaosAction) -> None:
        self.system.set_network_outage(action.dc_index, True)
        self.system.kernel.schedule(
            action.duration,
            lambda: self.system.set_network_outage(action.dc_index, False),
        )

    def _begin_flap(self, action: ChaosAction) -> None:
        flaps = max(1, int(action.params.get("flaps", 3)))
        cycle = action.duration / flaps
        if cycle <= 0:
            raise MprosError("flap needs a positive duration")
        for k in range(flaps):
            self.system.kernel.schedule(
                k * cycle,
                lambda i=action.dc_index: self.system.set_network_outage(i, True),
            )
            self.system.kernel.schedule(
                k * cycle + cycle / 2.0,
                lambda i=action.dc_index: self.system.set_network_outage(i, False),
            )

    def _begin_storm(self, action: ChaosAction) -> None:
        """Temporarily spike the link's drop/corrupt rates, both ways."""
        network = self.system.network
        dc_name = self._dc_name(action)
        links = [network.link(dc_name, "pdme"), network.link("pdme", dc_name)]
        saved = [link.config for link in links]
        spiked = {
            "drop_rate": float(action.params.get("drop_rate", 0.5)),
            "corrupt_rate": float(action.params.get("corrupt_rate", 0.2)),
        }
        for link in links:
            link.config = dc_replace(link.config, **spiked)

        def calm() -> None:
            for link, config in zip(links, saved):
                link.config = config

        self.system.kernel.schedule(action.duration, calm)

    def _begin_sensor_fault(self, action: ChaosAction) -> None:
        dc = self.system.dcs[action.dc_index]
        channel = int(action.params.get("channel", 0))
        now = self.system.kernel.now()
        if action.kind == "sensor_stuck":
            fault = sensor_stuck(
                float(action.params.get("level", 5.0)), now, now + action.duration
            )
        else:
            fault = sensor_dropout(now, now + action.duration)
        dc.inject_sensor_fault(channel, fault)
        self.system.kernel.schedule(
            action.duration, lambda: dc.clear_sensor_fault(channel)
        )

    def _begin_clock_hold(self, action: ChaosAction) -> None:
        scheduler = self.system.dcs[action.dc_index].scheduler
        scheduler.suspend()
        self.system.kernel.schedule(action.duration, scheduler.resume)

    def _begin_machinery_fault(self, action: ChaosAction) -> None:
        """Seed a real machine degradation (traffic for the drill)."""
        raw = str(action.params.get("fault", "mc:motor-imbalance"))
        try:
            kind = FaultKind(raw)
        except ValueError:
            kind = FaultKind[raw.upper().replace("-", "_")]
        machine = self.system.units[action.dc_index].primary
        self.system.inject_fault(
            machine,
            seeded(
                kind,
                onset=self.system.kernel.now(),
                severity=float(action.params.get("severity", 0.8)),
            ),
        )

    def _begin_report_storm(self, action: ChaosAction) -> None:
        """Commanded scan bursts: report production outrunning delivery.

        Uses :meth:`EventScheduler.command`, which bypasses the task's
        enabled flag — so the storm keeps pumping even while a daemon's
        backpressure defers the *periodic* scan, which is exactly the
        overload a backpressure drill needs.
        """
        dc = self.system.dcs[action.dc_index]
        bursts = max(1, int(action.params.get("bursts", 5)))
        per_burst = max(1, int(action.params.get("per_burst", 4)))
        spacing = action.duration / bursts if action.duration > 0 else 0.0

        def burst() -> None:
            if dc.scheduler.suspended:
                return
            for _ in range(per_burst):
                dc.scheduler.command("process-scan")

        for k in range(bursts):
            self.system.kernel.schedule(k * spacing, burst)

    def _begin_crash(self, action: ChaosAction) -> None:
        self.system.crash_dc(action.dc_index)

        def restart() -> None:
            # A supervising daemon may have force-restarted the DC
            # already; the scheduled restart then has nothing to do.
            if not self.system.dcs[action.dc_index].scheduler.suspended:
                return
            self.recovered_reports += self.system.restart_dc(action.dc_index)

        self.system.kernel.schedule(action.duration, restart)

    # -- orchestration ----------------------------------------------------
    def schedule(self) -> None:
        """Install every action as a kernel event (idempotent)."""
        if self._scheduled:
            return
        self._scheduled = True
        begin = {
            "partition": self._begin_partition,
            "flap": self._begin_flap,
            "storm": self._begin_storm,
            "sensor_dropout": self._begin_sensor_fault,
            "sensor_stuck": self._begin_sensor_fault,
            "clock_hold": self._begin_clock_hold,
            "crash": self._begin_crash,
            "machinery_fault": self._begin_machinery_fault,
            "report_storm": self._begin_report_storm,
        }
        start = self.system.kernel.now()
        for action in self.scenario.actions:
            self._windows.append(
                (action, start + action.at, start + action.at + action.duration)
            )
            self.system.kernel.schedule_at(
                start + action.at, lambda a=action: begin[a.kind](a)
            )

    def run(self) -> ResilienceReport:
        """Schedule the scenario, run it to the end, distill the report."""
        start = self.system.kernel.now()
        self.schedule()
        self.system.kernel.run_until(start + self.scenario.duration)
        return self.report()

    # -- distillation ------------------------------------------------------
    def _fault_outcome(self, action: ChaosAction, start: float, end: float) -> FaultOutcome:
        sys = self.system
        dc_name = self._dc_name(action)

        def first_after(times: list[float]) -> float | None:
            cands = [t for t in times if t >= end]
            return min(cands) - end if cands else None

        recovery: float | None
        if action.kind in ("machinery_fault", "report_storm"):
            # Deliberate machine degradation / commanded scan bursts are
            # the drill's *traffic*, not a disruption to heal.
            recovery = 0.0
        elif action.kind in ("crash", "clock_hold"):
            # Recovery = the PDME seeing the DC alive again.
            trans = (sys.monitor.transitions if sys.monitor is not None else [])
            went_down = any(
                t >= start and dc == dc_name and new in ("suspect", "down")
                for t, dc, _old, new in trans
            )
            if not went_down:
                recovery = 0.0
            else:
                recovery = first_after(
                    [t for t, dc, _o, new in trans if dc == dc_name and new == "alive"]
                )
        elif action.kind in ("partition", "flap", "storm"):
            # Recovery = the DC's breaker re-closing after the window.
            breaker = sys.breakers[action.dc_index] if sys.breakers else None
            trans = breaker.transitions if breaker is not None else []
            tripped = any(t >= start and new == "open" for t, _o, new in trans)
            if not tripped:
                recovery = 0.0
            else:
                recovery = first_after(
                    [t for t, _o, new in trans if new == "closed"]
                )
        else:  # sensor faults: recovery = quarantine release (if any)
            events = sys.dcs[action.dc_index].quarantine.events
            hit = any(t >= start and what == "quarantined" for t, _c, what in events)
            if not hit:
                recovery = 0.0
            else:
                recovery = first_after(
                    [t for t, _c, what in events if what == "released"]
                )
        return FaultOutcome(
            kind=action.kind,
            dc_index=action.dc_index,
            start=start,
            end=end,
            recovery_seconds=recovery,
        )

    def report(self) -> ResilienceReport:
        """Distill the run into a :class:`ResilienceReport`."""
        sys = self.system
        produced = sum(dc.reports_sent for dc in sys.dcs)
        at_oosm = sys.reports_received()
        backlog = sys.uplink_backlog()
        shed = sum(u.stats.shed for u in sys.uplinks)
        rejected = sum(u.stats.rejected for u in sys.uplinks)
        # Conservation: produced = at_oosm + backlog + shed + rejected
        # when delivery is exactly-once.  A shortfall is loss; an excess
        # means something got fused twice.
        balance = produced - at_oosm - backlog - shed - rejected
        ack_max = 0.0
        for u in sys.uplinks:
            h = u._m_ack_latency
            if h.count:
                ack_max = max(ack_max, h.max)
        quarantine_events: list[tuple[float, str, int, str]] = []
        for dc in sys.dcs:
            for t, channel, what in dc.quarantine.events:
                quarantine_events.append((t, str(dc.dc_id), int(channel), what))
        quarantine_events.sort()
        return ResilienceReport(
            scenario=self.scenario.name,
            seed=self.scenario.seed,
            duration=self.scenario.duration,
            produced=produced,
            at_oosm=at_oosm,
            backlog=backlog,
            shed=shed,
            rejected=rejected,
            lost=max(0, balance),
            duplicated=max(0, -balance),
            duplicate_acks=sys.pdme.duplicates_dropped,
            degraded=sum(dc.reports_degraded for dc in sys.dcs),
            recovered_reports=self.recovered_reports,
            breaker_transitions=sum(len(b.transitions) for b in sys.breakers),
            breakers_closed=all(
                b.state is BreakerState.CLOSED for b in sys.breakers
            ),
            heartbeat_transitions=list(
                sys.monitor.transitions if sys.monitor is not None else []
            ),
            heartbeat_flaps=(
                sys.monitor.flap_counts() if sys.monitor is not None else {}
            ),
            quarantine_events=quarantine_events,
            faults=[
                self._fault_outcome(action, start, end)
                for action, start, end in self._windows
            ],
            ack_latency_max=ack_max,
        )


def run_scenario(
    scenario: ChaosScenario | None = None,
    n_chillers: int | None = None,
    **build_kwargs,
) -> ResilienceReport:
    """Build a system from the scenario's seed, run it, report.

    Convenience wrapper used by the CLI and CI: the system is sized to
    cover every DC the scenario touches (override with ``n_chillers``)
    and built against the scenario's seed for full determinism.
    """
    scenario = scenario if scenario is not None else canonical_scenario()
    if n_chillers is None:
        n_chillers = max(2, scenario.max_dc_index() + 1)
    build_kwargs.setdefault("plant", scenario.plant)
    system = build_mpros_system(
        n_chillers=n_chillers, seed=scenario.seed, **build_kwargs
    )
    return ChaosEngine(system, scenario).run()
