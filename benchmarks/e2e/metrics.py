"""The metric catalog: what each workload reports, and under which name.

Each workload reports its own end-to-end metrics (``report_latency_p50_ms``
on ``ship``, ``cycle_p50_ms`` on ``dc_scan``, ...).  The one-workload
interface reports some of them under four generic names shared by every
workload (:data:`E2E`), so one bound in ``BENCHMARK.json`` covers one
kind of quantity; :data:`HEADLINE` is that mapping.  The rest (p50,
p95, throughput, ``failed_ratio``) are printed and compared but carry no
bound: on the 2-vCPU host the bounds were set on, their run-to-run
spread reached the widest bound allowed (see README, *Stability*).
"""

from __future__ import annotations

from typing import Iterable

from benchmarks.e2e.spans import Span, call_counts, self_times

#: Generic end-to-end metrics, in ``BENCHMARK.json`` order: name -> (unit, better).
E2E: dict[str, tuple[str, str]] = {
    "latency_p1_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

#: Per workload: generic name -> the workload's own metric.  ``setup_s``
#: and ``peak_rss_mb`` carry the same name everywhere.
HEADLINE: dict[str, dict[str, str]] = {
    "ship": {"latency_p1_ms": "report_latency_p1_ms", "latency_p90_ms": "report_latency_p90_ms"},
    "dc_scan": {"latency_p1_ms": "cycle_p1_ms", "latency_p90_ms": "cycle_p90_ms"},
    "intake": {"latency_p1_ms": "batch_p1_ms", "latency_p90_ms": "batch_p90_ms"},
    "serve": {"latency_p1_ms": "query_p1_ms", "latency_p90_ms": "query_p90_ms"},
}

#: Per workload: the work-per-busy-second metric, the base of
#: ``bench.trace_overhead``.
THROUGHPUT: dict[str, str] = {
    "ship": "fused_per_busy_s",
    "dc_scan": "analyses_per_s",
    "intake": "reports_per_s",
    "serve": "queries_per_busy_s",
}


def family(workload: str, metric: str) -> str | None:
    """The generic metric whose bound judges ``metric`` on ``workload``,
    or None for a metric without a bound."""
    if metric in E2E:
        return metric
    for generic, own in HEADLINE[workload].items():
        if own == metric:
            return generic
    return None


#: Per-layer metrics of the traced run, in ``BENCHMARK.json`` order:
#: (name, unit, better).  ``<span>.self_s`` is the summed self time of the
#: spans called ``<span>``; ``<span>.calls`` counts them.
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("dc.vibration_tests.self_s", "s", "lower"),
    ("dc.process_scan.self_s", "s", "lower"),
    ("dc.rms_scan.self_s", "s", "lower"),
    ("dc.reports", "count", "higher"),
    ("dsp.self_s", "s", "lower"),
    ("dsp.calls", "count", "lower"),
    ("hpc.pipeline.self_s", "s", "lower"),
    ("algorithms.dli.self_s", "s", "lower"),
    ("algorithms.fuzzy.self_s", "s", "lower"),
    ("algorithms.sbfr.self_s", "s", "lower"),
    ("algorithms.source_errors", "count", "lower"),
    ("sbfr.grid.self_s", "s", "lower"),
    ("netsim.kernel.self_s", "s", "lower"),
    ("netsim.kernel.events", "count", "lower"),
    ("netsim.rpc.self_s", "s", "lower"),
    ("netsim.frames_sent", "count", "lower"),
    ("netsim.frames_dropped", "count", "lower"),
    ("uplink.submit.self_s", "s", "lower"),
    ("uplink.retries", "count", "lower"),
    ("uplink.backlog_max", "count", "lower"),
    ("supervisor.heartbeat.self_s", "s", "lower"),
    ("supervisor.breaker.rejected", "count", "lower"),
    ("protocol.decode.self_s", "s", "lower"),
    ("protocol.encode.self_s", "s", "lower"),
    ("protocol.canonical.self_s", "s", "lower"),
    ("pdme.executive.self_s", "s", "lower"),
    ("pdme.shard.submit.self_s", "s", "lower"),
    ("pdme.shard.skew", "ratio", "lower"),
    ("pdme.duplicates", "count", "lower"),
    ("pdme.refused", "count", "lower"),
    ("fusion.ingest.self_s", "s", "lower"),
    ("fusion.snapshot.self_s", "s", "lower"),
    ("fusion.snapshot.calls", "count", "lower"),
    ("oosm.post.self_s", "s", "lower"),
    ("oosm.store.ingest.self_s", "s", "lower"),
    ("oosm.store.rows", "count", "lower"),
    ("oosm.store.file_mb", "MB", "lower"),
    ("gateway.fleet_health.self_s", "s", "lower"),
    ("gateway.health.self_s", "s", "lower"),
    ("gateway.alarms.self_s", "s", "lower"),
    ("gateway.reports.self_s", "s", "lower"),
    ("gateway.post_reports.self_s", "s", "lower"),
    ("gateway.cache.hit_ratio", "ratio", "higher"),
    ("gateway.snapshot.mb", "MB", "lower"),
    ("gateway.replica.self_s", "s", "lower"),
    ("gateway.write.wait_s", "s", "lower"),
    ("bench.harness.self_s", "s", "lower"),
    ("bench.busy_s", "s", "lower"),
    ("bench.self_time_coverage", "ratio", "higher"),
    ("bench.inputs_s", "s", "lower"),
    ("bench.lag_max_ms", "ms", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
)

#: Span names the workloads may record: every ``<span>.self_s`` above.
SPAN_NAMES = frozenset(
    name[: -len(".self_s")] for name, _, _ in LAYER_METRICS if name.endswith(".self_s")
)


def layer_values(
    spans: Iterable[Span], counts: dict[str, float], busy_s: float
) -> dict[str, float]:
    """Every per-layer metric except ``bench.trace_overhead``.

    ``counts`` supplies the non-span metrics a workload measured; a layer
    the workload never touched reads 0.  ``bench.self_time_coverage`` is
    the summed self time of all spans over the measured busy time: near 1
    when the spans tile the work without double counting.
    """
    spans = list(spans)
    unknown = {s.name for s in spans} - SPAN_NAMES
    if unknown:
        raise ValueError(f"spans outside the catalog: {sorted(unknown)}")
    selfs = self_times(spans)
    calls = call_counts(spans)
    out: dict[str, float] = {}
    for name, _, _ in LAYER_METRICS:
        if name.endswith(".self_s"):
            out[name] = selfs.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            out[name] = float(calls.get(name[: -len(".calls")], 0))
        elif name == "bench.busy_s":
            out[name] = busy_s
        elif name == "bench.self_time_coverage":
            out[name] = sum(selfs.values()) / busy_s if busy_s > 0 else 0.0
        elif name != "bench.trace_overhead":
            out[name] = float(counts.get(name, 0.0))
    return out


def counter_totals(snapshot: dict) -> dict[str, float]:
    """Counters of a ``MetricsRegistry.snapshot()`` summed over labels."""
    out: dict[str, float] = {}
    for rendered, value in snapshot["counters"].items():
        base = rendered.split("{", 1)[0]
        out[base] = out.get(base, 0.0) + value
    return out


def counter_deltas(before: dict, after: dict) -> dict[str, float]:
    """Per-counter growth between two registry snapshots."""
    b, a = counter_totals(before), counter_totals(after)
    return {name: a[name] - b.get(name, 0.0) for name in a}
