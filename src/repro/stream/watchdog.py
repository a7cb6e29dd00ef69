"""The streaming daemon's watchdog: stall detection + escalation.

The daemon cannot ask a DC whether it is stuck — a hung process answers
nothing — so the watchdog triangulates from two independent signals it
can always read:

* the PDME-side :class:`~repro.supervisor.heartbeat.HeartbeatMonitor`
  sweep (network-visible liveness), and
* per-DC *progress beacons*: the sum of the DC scheduler's task run
  counters.  A process that is alive and scheduled does work every
  tick; a frozen one does not, no matter what the network says.

The two signals split the failure space cleanly.  ``not ALIVE`` with
beacons still advancing is a *network* problem (partition, flap, storm)
— the circuit breaker and store-and-forward uplink own that, and a
restart would only destroy queue state (and, worse, "heal" a partition
the daemon has no business healing).  ``not ALIVE`` with beacons frozen
is a *process* problem, and that is what the escalation ladder is for:

1. ``retry`` — force one uplink flush attempt and wait a tick; a DC
   that was merely slow recovers here for free.
2. ``stage-restart`` — resume the DC scheduler.  This single call heals
   a clock-hold (the §4.9 hung-process case) outright; for a real crash
   it restarts report *production* immediately while the ladder
   continues toward recovery of the backlog.
3. ``dc-restart`` — :meth:`~repro.system.MprosSystem.force_restart_dc`:
   the full crash/recovery choreography (durable backlog reload with
   original report ids, cursor restore, network rejoin).

Once a DC enters the ladder it stays on it until the monitor reports it
ALIVE again — a rung-2 resume restarts the beacons, and without that
stickiness the ladder would reset one rung short of the restart a
crashed DC actually needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import MprosError
from repro.obs.registry import MetricsRegistry, default_registry
from repro.supervisor.heartbeat import DcHealth
from repro.system import MprosSystem

#: Escalation rungs, in order.
RUNGS = ("retry", "stage-restart", "dc-restart")


@dataclass(frozen=True)
class WatchdogEvent:
    """One escalation the watchdog performed."""

    t: float
    dc: str
    rung: str
    reason: str


@dataclass
class WatchdogStats:
    """Counters a daemon report folds in."""

    escalations: dict[str, int] = field(
        default_factory=lambda: {rung: 0 for rung in RUNGS}
    )
    restarts: int = 0
    recovered_reports: int = 0
    #: Completed unhealthy episodes as (dc, seconds-to-recovery).
    recovery_times: list[tuple[str, float]] = field(default_factory=list)


class Watchdog:
    """Per-sweep stall classification and the escalation ladder.

    Parameters
    ----------
    system:
        The assembled installation (must carry a heartbeat monitor).
    restart_cooldown_ticks:
        Healthy-or-not sweeps to wait after a forced restart before the
        ladder may escalate the same DC again — a restart needs a few
        ticks to prove itself before it can be judged a failure.
    """

    def __init__(
        self,
        system: MprosSystem,
        restart_cooldown_ticks: int = 3,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if system.monitor is None:
            raise MprosError("watchdog needs a system with a heartbeat monitor")
        if restart_cooldown_ticks < 1:
            raise MprosError(
                f"restart_cooldown_ticks must be >= 1, got {restart_cooldown_ticks}"
            )
        self.system = system
        self.restart_cooldown_ticks = restart_cooldown_ticks
        self.stats = WatchdogStats()
        self.events: list[WatchdogEvent] = []
        self._strikes: dict[str, int] = {}
        self._cooldown: dict[str, int] = {}
        self._episode_start: dict[str, float] = {}
        self._last_beacon: dict[str, int] = {}
        reg = metrics if metrics is not None else default_registry()
        self._m_rung = {
            rung: reg.counter("stream.watchdog.escalations", rung=rung)
            for rung in RUNGS
        }
        self._m_restarts = reg.counter("stream.watchdog.restarts")

    def beacon(self, dc_index: int) -> int:
        """One DC's progress beacon: total scheduler task runs."""
        return sum(t.runs for t in self.system.dcs[dc_index].scheduler.tasks())

    # -- the ladder --------------------------------------------------------
    def _escalate(self, dc_index: int, name: str, reason: str) -> WatchdogEvent | None:
        now = self.system.kernel.now()
        self._episode_start.setdefault(name, now)
        if self._cooldown.get(name, 0) > 0:
            self._cooldown[name] -= 1
            return None
        strikes = self._strikes.get(name, 0) + 1
        self._strikes[name] = strikes
        rung = RUNGS[min(strikes, len(RUNGS)) - 1]
        self.stats.escalations[rung] += 1
        self._m_rung[rung].inc()
        if rung == "retry":
            self.system.uplinks[dc_index].flush(force=True)
        elif rung == "stage-restart":
            self.system.dcs[dc_index].scheduler.resume()
            self.system.uplinks[dc_index].flush(force=True)
        else:  # dc-restart
            recovered = self.system.force_restart_dc(dc_index)
            self.stats.restarts += 1
            self.stats.recovered_reports += recovered
            self._m_restarts.inc()
            self._strikes[name] = 0
            self._cooldown[name] = self.restart_cooldown_ticks
        event = WatchdogEvent(t=now, dc=name, rung=rung, reason=reason)
        self.events.append(event)
        return event

    def observe(self, states: dict[str, DcHealth]) -> list[WatchdogEvent]:
        """Classify every DC from one monitor sweep; act on stalls.

        Call once per daemon tick with the fresh sweep result.  Returns
        the escalations performed this sweep (often empty).
        """
        now = self.system.kernel.now()
        fired: list[WatchdogEvent] = []
        for i, dc in enumerate(self.system.dcs):
            name = str(dc.dc_id)
            beacon = self.beacon(i)
            progressed = beacon > self._last_beacon.get(name, -1)
            self._last_beacon[name] = beacon
            alive = states.get(name) is DcHealth.ALIVE
            if alive and (progressed or not dc.scheduler.suspended):
                start = self._episode_start.pop(name, None)
                if start is not None:
                    self.stats.recovery_times.append((name, now - start))
                self._strikes[name] = 0
                if self._cooldown.get(name, 0) > 0:
                    self._cooldown[name] -= 1
                continue
            in_episode = name in self._episode_start
            if in_episode or (not alive and not progressed):
                reason = (
                    "beacons frozen"
                    if not progressed
                    else "episode open, still not alive"
                )
                event = self._escalate(i, name, f"{reason}; monitor={states.get(name)}")
                if event is not None:
                    fired.append(event)
            else:
                # Degraded on the network but locally progressing and
                # never frozen: a link problem.  The breaker fails fast,
                # the uplink queues — no restart will improve anything.
                self._strikes[name] = 0
        return fired
