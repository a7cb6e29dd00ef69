"""Always-on streaming mode: the wall-tick pipeline daemon.

§4.9's goal is "long-term unattended operation": MPROS on board is not
a batch job but a process that keeps the acquisition → uplink → PDME
ingest → fusion loop turning through stalls, outages, and bursts.  This
package is that mode over the simulated installation:

* :class:`~repro.stream.daemon.StreamDaemon` — the tick loop itself,
  with per-stage deterministic deadline budgets and skip-empty stages;
* :class:`~repro.stream.watchdog.Watchdog` — dual-signal stall
  detection (heartbeat sweeps × progress beacons) driving the
  retry → stage-restart → DC-restart escalation ladder;
* :class:`~repro.stream.backpressure.BackpressureController` —
  hysteresis over the uplink backlog gauges: defer low-priority scans
  and stretch the tick before the queue ever sheds;
* :class:`~repro.stream.catchup.CatchupController` — bounded replay of
  outage backlogs with a hard staleness cutoff;
* :func:`~repro.stream.drill.run_daemon_drill` — the whole loop under
  a scheduled chaos drill, merged into one CI-gateable verdict.

Time is simulated end to end, so every drill and recovery-time gate is
deterministic and replayable.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.stream.backpressure": [
        "BackpressureController",
        "BackpressureEvent",
    ],
    "repro.stream.catchup": ["CatchupController", "CatchupStats"],
    "repro.stream.daemon": [
        "STAGES",
        "DaemonConfig",
        "DaemonReport",
        "StreamDaemon",
    ],
    "repro.stream.drill": [
        "RECOVERY_CEILING",
        "DaemonDrillReport",
        "drill_config",
        "run_daemon_drill",
    ],
    "repro.stream.watchdog": [
        "RUNGS",
        "Watchdog",
        "WatchdogEvent",
        "WatchdogStats",
    ],
})
