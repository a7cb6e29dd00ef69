"""Golden-master pins on canonical gateway responses, per resource.

One deterministic fleet, one response document per resource type
(managed object, measurement page, report page, alarms, fleet health
excerpt), all rendered through ``canonical_dumps`` and compared
byte-for-byte against a committed golden file.  Any drift in resource
field sets, key naming, float rounding, or collection ordering shows
up here first.

Regenerate intentionally with::

    GOLDEN_REGEN=1 PYTHONPATH=src python -m pytest \\
        tests/gateway/test_resources_golden.py

and review the golden diff like any other code change.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.protocol.canonical import canonical_dumps

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"
GOLDEN_FILE = "gateway_resources.json"


def _check_golden(payload: str) -> None:
    path = GOLDEN_DIR / GOLDEN_FILE
    if os.environ.get("GOLDEN_REGEN"):
        path.write_text(payload, encoding="utf-8")
        return
    assert path.exists(), (
        f"missing golden file {path}; regenerate with GOLDEN_REGEN=1"
    )
    assert payload == path.read_text(encoding="utf-8"), (
        f"{GOLDEN_FILE} drifted from its golden master; if the change "
        "is intentional, regenerate with GOLDEN_REGEN=1 and review the diff"
    )


def test_canonical_responses_are_pinned(fleet, gateway):
    model, pdme, reports, _ = fleet
    first = sorted({r.sensed_object_id for r in reports})[0]
    # The OOSM retains series for measurements; post a slice of the
    # same stream (entity state only — fused state came via the PDME).
    model.post_reports(reports[:12])

    doc = {
        "managedObject": json.loads(gateway.managed_object_json(first)),
        "managedObjects": gateway.managed_objects(limit=3).to_json(),
        "measurements": gateway.measurements(first, limit=5).to_json(),
        "reports": gateway.reports(None, 5).to_json(),
        "alarms": json.loads(gateway.alarms_json(0.3)),
        "health": json.loads(gateway.health_json(first)),
        "subscription": gateway.subscribe(lambda r: None, first).to_json(),
        "stats_keys": sorted(gateway.stats()),
    }
    _check_golden(canonical_dumps(doc))


def test_responses_reproducible_across_instances(fleet):
    """The same fleet through two independent gateways renders
    byte-identical responses — nothing instance-local leaks in."""
    from repro.gateway import gateway_for_sharded
    from repro.obs.registry import MetricsRegistry

    model, pdme, _, _ = fleet
    a = gateway_for_sharded(model, pdme, metrics=MetricsRegistry())
    b = gateway_for_sharded(model, pdme, metrics=MetricsRegistry())
    assert a.fleet_health_json() == b.fleet_health_json()
    assert a.alarms_json(0.3) == b.alarms_json(0.3)
    assert canonical_dumps(a.reports(None, 7).to_json()) == canonical_dumps(
        b.reports(None, 7).to_json()
    )
