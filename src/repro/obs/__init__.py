"""Unified observability: metrics, trace spans, exporters.

One registry, one span tracer, one export format for the whole
DC→network→PDME path — see :mod:`repro.obs.registry` for the design
rules (no wall-clock calls, fixed histogram edges, deterministic
snapshots).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.export": ["export_jsonl", "snapshot_json"],
    "repro.obs.registry": [
        "DEFAULT_TIME_EDGES",
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "default_registry",
        "render_series",
        "use_registry",
    ],
    "repro.obs.spans": ["Span", "Tracer"],
})
