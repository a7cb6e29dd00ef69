"""Deterministic chaos engineering for the simulated MPROS installation.

§4.9: "Power supply and communications are stable in our labs but may
not be the same on board the ships.  Simulating the range of problems
that may arise will let us improve robustness to the point of long-term
unattended operation."

This package is that simulation harness grown into a repeatable tool: a
:class:`~repro.chaos.scenario.ChaosScenario` declares *structural*
faults — link partitions and flapping, packet storms, sensor dropout and
stuck-at failures, DC clock holds, full DC crash/restart — on the
simulated clock, and the :class:`~repro.chaos.engine.ChaosEngine`
schedules them on the event kernel and distills the run into a
:class:`~repro.chaos.engine.ResilienceReport` (lost / duplicated /
delayed reports, recovery times, breaker transitions) from the
observability registry.  Everything is seeded and event-driven, so a
failing chaos run replays exactly.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.chaos.engine": ["ChaosEngine", "ResilienceReport", "run_scenario"],
    "repro.chaos.scenario": [
        "ACTION_KINDS",
        "ChaosAction",
        "ChaosScenario",
        "canonical_scenario",
        "daemon_scenario",
        "turbine_scenario",
    ],
})
