"""The ICAS open interface (§1).

"We are currently designing and refining a[n] MPROS system architecture
with open interfaces to provide machinery condition and raw sensor data
to other shipboard systems such as ICAS (Integrated Condition
Assessment System)."

This module is that boundary: a read-only query façade over the PDME
(fused machinery condition, priorities, health) registered as RPC
methods any shipboard client can call, and a typed client wrapper for
the consumer side.  Raw sensor data is served by the DCs themselves
(``get_measurements`` on the DC endpoint), matching §5.8's "configured
as a database server and can be accessed by client PC's on the
network".
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.common.errors import MprosError
from repro.netsim.rpc import RpcEndpoint
from repro.pdme.executive import PdmeExecutive


def register_icas_interface(pdme: PdmeExecutive, endpoint: RpcEndpoint) -> None:
    """Expose the machinery-condition query methods on an endpoint.

    Methods (all read-only):

    * ``icas.get_condition``  {machine_id} → fused group states
    * ``icas.get_priorities`` {limit?} → the maintenance list
    * ``icas.get_health``     {entity_id} → multi-level health rollup
    * ``icas.get_reports``    {machine_id, limit?} → stored §7 reports
    """

    def get_condition(payload: dict[str, Any]) -> dict[str, Any]:
        machine_id = str(payload["machine_id"])
        pdme.model.get(machine_id)  # raises for unknown machines
        states = pdme.engine.diagnostic.states_for_object(machine_id)
        return {
            "machine_id": machine_id,
            "groups": [
                {
                    "group": s.group_name,
                    "beliefs": {c: round(b, 4) for c, b in s.beliefs.items()},
                    "unknown": round(s.unknown, 4),
                    "severity": round(s.severity, 4),
                    "reports": s.report_count,
                }
                for s in states
            ],
        }

    def get_priorities(payload: dict[str, Any]) -> dict[str, Any]:
        limit = int(payload.get("limit", 20))
        entries = pdme.priorities()[:limit]
        return {
            "entries": [
                {
                    "machine_id": e.sensed_object_id,
                    "condition_id": e.machine_condition_id,
                    "belief": round(e.belief, 4),
                    "severity": round(e.severity, 4),
                    "time_to_failure_s": (
                        None if math.isinf(e.time_to_failure) else e.time_to_failure
                    ),
                    "urgency": round(e.urgency, 4),
                }
                for e in entries
            ]
        }

    def get_health(payload: dict[str, Any]) -> dict[str, Any]:
        from repro.fusion.hierarchy import HealthRollup

        entity_id = str(payload["entity_id"])
        rollup = HealthRollup(pdme.model, pdme.engine)
        a = rollup.assess(entity_id)
        return {
            "entity_id": a.entity_id,
            "health": round(a.health, 4),
            "worst_part": a.worst_part,
            "worst_condition": a.worst_condition,
            "suspect_parts": {k: round(v, 4) for k, v in a.suspect_parts.items()},
        }

    def get_reports(payload: dict[str, Any]) -> dict[str, Any]:
        from repro.protocol.wire import encode_report

        machine_id = str(payload["machine_id"])
        limit = int(payload.get("limit", 50))
        reports = pdme.router.reports_for(machine_id)[-limit:]
        return {"reports": [encode_report(r) for r in reports]}

    endpoint.register("icas.get_condition", get_condition)
    endpoint.register("icas.get_priorities", get_priorities)
    endpoint.register("icas.get_health", get_health)
    endpoint.register("icas.get_reports", get_reports)


class IcasClient:
    """Typed consumer-side wrapper over the ICAS RPC methods.

    Calls are asynchronous on the simulated network; each method takes
    a callback.  A synchronous convenience (:meth:`fetch`) runs the
    kernel until the reply lands — fine for shipboard query tools.
    """

    def __init__(self, endpoint: RpcEndpoint, pdme_name: str = "pdme") -> None:
        self.endpoint = endpoint
        self.pdme_name = pdme_name

    def call(
        self, method: str, payload: dict[str, Any],
        on_reply: Callable[[dict[str, Any]], None],
    ) -> None:
        """Issue one ICAS query."""
        self.endpoint.call(self.pdme_name, f"icas.{method}", payload, on_reply=on_reply)

    def fetch(self, kernel, method: str, payload: dict[str, Any]) -> dict[str, Any]:
        """Blocking convenience: run the kernel until the reply arrives."""
        box: list[dict[str, Any]] = []
        errors: list[Exception] = []
        self.endpoint.call(
            self.pdme_name, f"icas.{method}", payload,
            on_reply=box.append, on_error=errors.append,
        )
        for _ in range(64):
            if box or errors:
                break
            if not kernel.step():
                break
        if errors:
            raise MprosError(f"ICAS query failed: {errors[0]}")
        if not box:
            raise MprosError("ICAS query produced no reply (network idle)")
        return box[0]
