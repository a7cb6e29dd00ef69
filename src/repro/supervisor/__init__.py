"""Supervised fault tolerance for the DC→PDME path.

The paper's shipboard framing (§4.9: "power supply and communications
... may not be the same on board the ships"; "the installed system will
be disconnected from our labs for months at a time") demands that the
monitoring chain keep diagnosing through the exact failures it monitors
for.  This package is the health layer woven through the pipeline:

* :mod:`repro.supervisor.breaker` — a circuit breaker around
  :meth:`repro.netsim.rpc.RpcEndpoint.call` so a partitioned uplink
  stops burning retries and probes before resuming.
* :mod:`repro.supervisor.heartbeat` — per-DC heartbeats with a
  PDME-side monitor that marks silent DCs SUSPECT and then DOWN.
* :mod:`repro.supervisor.quarantine` — RMS-alarm-driven sensor
  quarantine so a stuck accelerometer degrades the DC's output instead
  of poisoning it (reports carry ``degraded=True`` rather than going
  silent).

Everything is driven by the simulated clock — deterministic, testable,
and identical in behaviour on real hardware with a monotonic clock.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.supervisor.breaker": [
        "BreakerState",
        "BreakerTrippedError",
        "CircuitBreaker",
        "GuardedEndpoint",
    ],
    "repro.supervisor.heartbeat": [
        "DcHealth",
        "HeartbeatEmitter",
        "HeartbeatMonitor",
    ],
    "repro.supervisor.quarantine": ["SensorQuarantine"],
})
