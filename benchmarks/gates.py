"""Ratio gates: shipped paths timed against the oracles the system keeps.

Usage::

    PYTHONPATH=src:. python -m benchmarks.gates OUT.json
    python scripts/check_bench_regression.py OUT.json benchmarks/baseline.json

Each stage times a shipped path and, on the same host in the same run,
an oracle that must produce the same output; the equality is asserted
before any timing is accepted.  A ratio of two such timings transfers
between hosts in a way absolute times never do, so these are the only
numbers ``benchmarks/baseline.json`` gates.  Absolute latency, per-layer
cost and exact work counts come from ``benchmarks/e2e``.

* ``sbfr`` — the DCs' :class:`SbfrWatchGrid` vs the SBFR interpreter on
  the same level+counter machine pairs, per-cycle statuses equal,
  against the paper's "100 machines … cycle period < 4 ms" (§6.3);
* ``daemon`` — a plain kernel run vs the same system under
  :class:`StreamDaemon`, equal report counts, plus a deterministic
  recovery probe in simulated seconds;
* ``shard_scaling`` — ``parallel_shard_ingest`` at 1 and 2 shards, the
  fused snapshots byte-identical;
* ``gateway`` — cached reads vs ``fleet_health_json(use_cache=False)``,
  then concurrent readers during sustained ingest, and a keyset drain.

The document written is ``{"ratios": {...}, "stages": {...}}``.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.common.errors import MprosError
from repro.pdme.demo import demo_reports

#: The shard counts timed by ``shard_scaling``; a count enters the
#: gated ratios only on a host with at least that many cores.
SHARD_COUNTS = (1, 2)
#: Every ratio this script can write, which ``benchmarks/baseline.json``
#: gates.
RATIOS = (
    "sbfr_grid_speedup",
    "daemon_overhead_ratio",
    "daemon_recovery_headroom",
    *(f"shard_ingest_speedup@shards={n}" for n in SHARD_COUNTS[1:]),
    "gateway_cached_speedup",
    "gateway_p99_headroom",
    "gateway_queries_per_s",
)


def _timed(fn, repetitions: int) -> dict:
    """Run ``fn`` ``repetitions`` times; trimmed-median wall seconds.

    The min and max iteration are trimmed (when there are enough
    repetitions) before taking the median — single-shot wall clocks on
    a shared host are noise.
    """
    samples = []
    gc_was_enabled = gc.isenabled()
    for _ in range(repetitions):
        # Earlier stages leave the collector wherever their allocation
        # pattern pushed it; a collection pause landing inside one
        # ~10 ms repetition swings a 2-rep median severalfold.  Start
        # every repetition from the same collector state and keep the
        # collector out of the timed body.
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()  # mpros: allow[lint.wall-clock]
            fn()
            dt = time.perf_counter() - t0  # mpros: allow[lint.wall-clock]
        finally:
            if gc_was_enabled:
                gc.enable()
        samples.append(dt)
    trimmed = sorted(samples)
    if len(trimmed) > 3:
        trimmed = trimmed[1:-1]
    return {
        "repetitions": repetitions,
        "median_s": float(np.median(trimmed)),
        "min_s": float(min(samples)),
    }


def gate_sbfr() -> dict:
    """The DCs' SBFR watch grid vs the AST interpreter running the same
    level+counter machine pairs, against the paper's '100 machines in
    < 4 ms per cycle' budget.

    Both sides consume fired counter flags as the SBFR source does, and
    every cycle's level and counter statuses must be identical on both
    executors before the timing is accepted.
    """
    from repro.sbfr.batch import SbfrWatchGrid
    from repro.sbfr.interpreter import SbfrSystem
    from repro.sbfr.library import count_threshold_machine, level_alarm_machine

    n_objects, n_watches = 100, 5
    cycles = 200
    reps = 3
    rng = np.random.default_rng(7)
    thresholds = rng.uniform(0.4, 0.6, size=n_watches)
    values = rng.normal(0.5, 0.2, size=(cycles, n_objects, n_watches))
    present = np.ones((n_objects, n_watches), dtype=bool)
    channels = [f"pv{i}" for i in range(n_watches)]

    def interpreters() -> list:
        systems = []
        for _ in range(n_objects):
            system = SbfrSystem(channels=channels)
            for i in range(n_watches):
                alarm = system.add_machine(
                    level_alarm_machine(
                        channel=i, threshold=float(thresholds[i]), hold_cycles=2
                    )
                )
                system.add_machine(count_threshold_machine(watched_machine=alarm, count=3))
            systems.append(system)
        return systems

    def grid() -> tuple:
        g = SbfrWatchGrid(thresholds, hold_cycles=2, repeat_count=3)
        return g, np.array([g.add_row() for _ in range(n_objects)])

    # Fresh executors per repetition, built outside the timed body.
    fresh_interp = [interpreters() for _ in range(reps)]
    fresh_grid = [grid() for _ in range(reps)]
    # Per cycle: (objects, watches * 2) statuses, level/counter interleaved
    # in the interpreter's machine order, read before flags are consumed.
    traces: dict[str, list] = {}
    counters = range(1, 2 * n_watches, 2)

    def run_interpreter():
        systems = fresh_interp.pop()
        trace = []
        for c in range(cycles):
            statuses = []
            for o, system in enumerate(systems):
                system.cycle(values[c, o])
                statuses.append([m.status for m in system.states])
                for k in counters:
                    if system.states[k].status:
                        system.set_status(k, 0)
            trace.append(statuses)
        traces["interpreter"] = trace

    def run_grid():
        g, rows = fresh_grid.pop()
        trace = []
        for c in range(cycles):
            cstatus = g.cycle_rows(rows, values[c], present)
            trace.append((g.lstatus[rows], cstatus))
            for o, i in zip(*np.nonzero(cstatus)):
                g.consume(rows[o], i)
        traces["grid"] = trace

    interp_t = _timed(run_interpreter, reps)
    grid_t = _timed(run_grid, reps)
    for c, (want, (lstatus, cstatus)) in enumerate(
        zip(traces["interpreter"], traces["grid"])
    ):
        got = np.stack((lstatus, cstatus), axis=-1).reshape(n_objects, 2 * n_watches)
        if not np.array_equal(got, np.asarray(want)):
            raise MprosError(f"sbfr grid/interpreter status mismatch at cycle {c}")
    interp_ms = interp_t["median_s"] / cycles * 1e3
    grid_ms = grid_t["median_s"] / cycles * 1e3
    return {
        "objects": n_objects,
        "watches": n_watches,
        "machines": 2 * n_objects * n_watches,
        "cycles": cycles,
        "interpreter_ms_per_cycle": interp_ms,
        "grid_ms_per_cycle": grid_ms,
        "paper_budget_ms": 4.0,
        "grid_within_budget": grid_ms < 4.0,
        "statuses_identical": True,
        "speedup": interp_ms / grid_ms,
    }


def gate_daemon() -> dict:
    """The always-on streaming loop: steady-state overhead + recovery.

    ``plain`` runs the kernel straight to the horizon; ``daemon`` drives
    the identical system through :class:`StreamDaemon` ticks (watchdog
    sweep, backpressure evaluation, skip-empty stages every tick).  The
    two runs must deliver the same report count to the PDME before the
    timing is accepted — the loop must add supervision, not change the
    data — and ``daemon_overhead_ratio`` (plain wall / daemon wall, ~1,
    higher is cheaper) gates the loop's bookkeeping cost.

    The recovery figure is *simulated* time and therefore exact on any
    host: a DC crash is scheduled mid-run, the watchdog must walk its
    ladder to a forced restart, and ``daemon_recovery_headroom`` is the
    drill ceiling over the measured detection-to-healthy time (> 1
    means margin; the gate catches a slower ladder, an extra rung, or a
    broken restart path).
    """
    from repro.obs.registry import MetricsRegistry
    from repro.plant.faults import FaultKind, seeded
    from repro.stream.daemon import DaemonConfig, StreamDaemon
    from repro.stream.drill import RECOVERY_CEILING
    from repro.system import build_mpros_system

    window = 900.0
    reps = 2
    counts: dict[str, int] = {}

    def fresh():
        system = build_mpros_system(n_chillers=2, seed=5, metrics=MetricsRegistry())
        system.inject_fault(
            system.units[0].motor,
            seeded(FaultKind.MOTOR_IMBALANCE, onset=0.0, severity=0.8),
        )
        return system

    def run_plain():
        system = fresh()
        system.kernel.run_until(window)
        counts["plain"] = system.reports_received()

    # One untimed warmup so the first timed path does not eat the
    # process-wide one-time costs (imports, allocator, FFT plans) —
    # those would skew the plain/daemon ratio, not just its level.
    run_plain()

    def run_daemon():
        system = fresh()
        daemon = StreamDaemon(
            system, DaemonConfig(tick_interval=60.0), metrics=system.metrics
        )
        daemon.run(int(window / 60.0))
        counts["daemon"] = system.reports_received()

    plain_t = _timed(run_plain, reps)
    daemon_t = _timed(run_daemon, reps)
    if counts["plain"] != counts["daemon"] or counts["plain"] < 1:
        raise MprosError(
            f"daemon ablation mismatch: plain delivered {counts['plain']} "
            f"reports, daemon {counts['daemon']} (both must match, > 0)"
        )

    # Deterministic recovery measurement (simulated seconds, no wall
    # clock): crash one DC mid-run, let the watchdog ladder restart it.
    system = fresh()
    system.kernel.schedule_at(300.003, lambda: system.crash_dc(1))
    daemon = StreamDaemon(
        system, DaemonConfig(tick_interval=60.0), metrics=system.metrics
    )
    report = daemon.run_for(900.0)
    recovery = report.max_recovery_seconds
    if recovery <= 0 or not report.all_alive:
        raise MprosError(
            f"daemon recovery probe failed: recovery={recovery}, "
            f"final health {report.final_health}"
        )
    return {
        "window_s": window,
        "reports_delivered": counts["daemon"],
        "plain": {**plain_t, "sim_per_wall": window / plain_t["median_s"]},
        "daemon": {**daemon_t, "sim_per_wall": window / daemon_t["median_s"]},
        "overhead_ratio": plain_t["median_s"] / daemon_t["median_s"],
        "recovery_s": recovery,
        "recovery_ceiling_s": RECOVERY_CEILING,
        "recovery_headroom": RECOVERY_CEILING / recovery,
        "forced_restarts": report.watchdog.restarts,
    }


def _host_cores() -> int:
    """Cores actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def gate_shard_scaling() -> dict:
    """Multi-process sharded PDME ingest vs the single-process oracle.

    The same fleet report stream is fused at each of
    :data:`SHARD_COUNTS`; one shard runs in-process (the oracle, like
    ``full_recompute()``) and every larger count fans the
    consistent-hash partitions across that many worker processes.
    Every fused snapshot must render to canonical bytes identical to
    the one-shard oracle before any timing is accepted — the twin of
    the golden shard-invariance tests.

    Per-count speedups are recorded unconditionally, but only counts
    the host can actually parallelize (``cores >= N``) are marked
    ``gated`` — the regression gate compares just those, so a 1-core
    runner still checks byte-identity without failing on physics.
    """
    from repro.pdme.shard import parallel_shard_ingest
    from repro.protocol.canonical import canonical_dumps

    reports, report_ids = demo_reports(quick=True)
    reps = 1
    cores = _host_cores()

    snaps: dict[int, str] = {}

    def run(n: int):
        def body():
            snaps[n] = canonical_dumps(
                parallel_shard_ingest(reports, report_ids, n_shards=n)
            )
        return body

    per: dict[str, dict] = {}
    timings: dict[int, dict] = {}
    for n in SHARD_COUNTS:
        timings[n] = _timed(run(n), reps)
    oracle = snaps[1]
    for n in SHARD_COUNTS[1:]:
        if snaps[n] != oracle:
            raise MprosError(
                f"shard ablation mismatch: {n}-shard fused snapshot differs "
                f"from the single-process oracle"
            )
    n_reports = len(reports)
    for n in SHARD_COUNTS:
        t = timings[n]
        per[str(n)] = {
            **t,
            "reports_per_s": n_reports / t["median_s"],
            "speedup": timings[1]["median_s"] / t["median_s"],
            "gated": n == 1 or cores >= n,
        }
    return {
        "reports": n_reports,
        "machines": len({r.sensed_object_id for r in reports}),
        "shard_counts": list(SHARD_COUNTS),
        "host_cores": cores,
        "byte_identical": True,
        "per_shards": per,
    }


def gate_gateway() -> dict:
    """The fleet query gateway serving path: cached vs uncached reads,
    and tail latency under concurrent readers during sustained ingest.

    Phase 1 (the ablation pair): the same fleet-health query answered
    by the uncached oracle (full ``fused_snapshot`` re-fusion + fresh
    canonical serialization per query) and by the versioned snapshot
    cache (O(1) hit while the version holds).  Every cached response
    is byte-compared against the oracle before any timing is accepted —
    a fast wrong answer is a gate failure, not a speedup.

    Phase 2 (the serving claim): reader threads hammer a mixed query
    workload (fleet health, per-object health, alarm listings, keyset
    log pages through the read replica) while the main thread sustains
    ingest through the shard router.  Readers run on read-only WAL
    connections, so they never contend with the writer.  The readers
    keep going after ingest ends until they have made at least
    ``min_requests`` requests between them, so the p99 is an order
    statistic over hundreds of requests, not the slowest of a dozen.
    Each request is timed where it is made, and p50/p99 are exact
    nearest-rank order statistics over those times.  After the dust settles the cached
    response must again match the uncached oracle byte for byte, and a
    full keyset drain must see every written report exactly once, in
    arrival order.
    """
    import tempfile
    import threading

    from benchmarks.e2e.stats import percentile
    from repro.gateway.service import gateway_for_sharded
    from repro.obs.registry import MetricsRegistry
    from repro.oosm.model import ShipModel
    from repro.pdme.shard import ShardedPdme

    reports, report_ids = demo_reports(quick=True)
    reps = 3
    queries_per_iter = 50
    readers = 2
    min_requests = 400
    p99_ceiling_s = 0.25

    with tempfile.TemporaryDirectory() as tmp:
        pdme = ShardedPdme(
            2, store_paths=[f"{tmp}/shard-0.sqlite", f"{tmp}/shard-1.sqlite"]
        )
        model = ShipModel()
        objects = sorted({r.sensed_object_id for r in reports})
        for oid in objects:
            model.create("rotating-machine", id=oid, name=oid)
        # Phase-1 state: most of the stream is already fused; the rest
        # is held back to sustain ingest during the concurrent phase.
        preload = (len(reports) * 3) // 4
        pdme.submit_batch(reports[:preload], report_ids[:preload])

        gw = gateway_for_sharded(model, pdme, metrics=MetricsRegistry())

        # -- phase 1: cached vs uncached, byte-compared every query --
        def run_uncached():
            for _ in range(queries_per_iter):
                gw.fleet_health_json(use_cache=False)

        oracle = gw.fleet_health_json(use_cache=False)
        if gw.fleet_health_json() != oracle:
            raise MprosError(
                "gateway cache ablation mismatch: cached fleet-health "
                "response differs from the uncached oracle"
            )

        def run_cached():
            for _ in range(queries_per_iter):
                gw.fleet_health_json()

        uncached = _timed(run_uncached, reps)
        cached = _timed(run_cached, reps)
        cached_speedup = uncached["median_s"] / cached["median_s"]

        # -- phase 2: concurrent readers during sustained ingest ------
        ingest_done = threading.Event()
        request_seconds: list[list[float]] = [[] for _ in range(readers)]
        reader_errors: list[BaseException] = []

        def enough() -> bool:
            return (
                ingest_done.is_set()
                and sum(map(len, request_seconds)) >= min_requests
            )

        def reader(idx: int) -> None:
            seconds = request_seconds[idx]
            clock = time.perf_counter  # mpros: allow[lint.wall-clock]

            def request(fn, *args):
                t0 = clock()
                out = fn(*args)
                seconds.append(clock() - t0)
                return out

            try:
                while not enough():
                    request(gw.fleet_health_json)
                    request(gw.health_json, objects[idx % len(objects)])
                    request(gw.alarms_json, 0.3)
                    page = request(gw.reports, None, 32)
                    while page.next_cursor is not None and not enough():
                        page = request(gw.reports, page.next_cursor, 32)
            except BaseException as exc:  # surfaced after join
                reader_errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(i,), daemon=True)
            for i in range(readers)
        ]
        chunk = 10
        t0 = time.perf_counter()  # mpros: allow[lint.wall-clock]
        for t in threads:
            t.start()
        for start in range(preload, len(reports), chunk):
            pdme.submit_batch(
                reports[start : start + chunk],
                report_ids[start : start + chunk],
            )
        ingest_done.set()
        for t in threads:
            t.join()
        wall_s = time.perf_counter() - t0  # mpros: allow[lint.wall-clock]
        if reader_errors:
            raise MprosError(
                f"gateway reader thread failed under concurrent ingest: "
                f"{reader_errors[0]!r}"
            )
        tail = [s for seconds in request_seconds for s in seconds]
        p50, p99 = percentile(tail, 50.0), percentile(tail, 99.0)

        # -- post-conditions: correctness survived the contention -----
        final_oracle = gw.fleet_health_json(use_cache=False)
        if gw.fleet_health_json() != final_oracle:
            raise MprosError(
                "gateway cache mismatch after concurrent ingest: cached "
                "response differs from the uncached oracle"
            )
        seen_seqs: list[int] = []
        page = gw.reports(None, 128)
        while True:
            seen_seqs.extend(r.intake_seq for r in page.items)
            if page.next_cursor is None:
                break
            page = gw.reports(page.next_cursor, 128)
        if len(seen_seqs) != len(reports) or seen_seqs != sorted(set(seen_seqs)):
            raise MprosError(
                f"gateway keyset drain mismatch: saw {len(seen_seqs)} rows "
                f"of {len(reports)}, monotone="
                f"{seen_seqs == sorted(set(seen_seqs))}"
            )
        pdme.close()

    return {
        "reports": len(reports),
        "objects": len(objects),
        "queries_per_iter": queries_per_iter,
        "uncached": {
            **uncached,
            "queries_per_s": queries_per_iter / uncached["median_s"],
        },
        "cached": {
            **cached,
            "queries_per_s": queries_per_iter / cached["median_s"],
        },
        "cached_speedup": cached_speedup,
        "byte_identical": True,
        "concurrent": {
            "readers": readers,
            "queries": len(tail),
            "wall_s": wall_s,
            "queries_per_s": len(tail) / wall_s,
            "p50": p50,
            "p99": p99,
            "p99_ceiling_s": p99_ceiling_s,
            "p99_headroom": p99_ceiling_s / p99,
            "keyset_drain_ok": True,
        },
        "cache": {"hits": gw.cache.hits, "misses": gw.cache.misses},
    }


def run_gates() -> dict:
    """Run every stage; returns ``{"ratios": ..., "stages": ...}``."""
    stages = {
        "sbfr": gate_sbfr(),
        "daemon": gate_daemon(),
        "shard_scaling": gate_shard_scaling(),
        "gateway": gate_gateway(),
    }
    gateway = stages["gateway"]
    ratios = {
        "sbfr_grid_speedup": stages["sbfr"]["speedup"],
        "daemon_overhead_ratio": stages["daemon"]["overhead_ratio"],
        "daemon_recovery_headroom": stages["daemon"]["recovery_headroom"],
        "gateway_cached_speedup": gateway["cached_speedup"],
        "gateway_p99_headroom": gateway["concurrent"]["p99_headroom"],
        "gateway_queries_per_s": gateway["concurrent"]["queries_per_s"],
    }
    # Per-shard-count speedups, keyed with shard metadata.  Only counts
    # the host can parallelize enter the gated ratios (the stage detail
    # keeps the ungated numbers).
    for n_str, detail in stages["shard_scaling"]["per_shards"].items():
        if n_str != "1" and detail["gated"]:
            ratios[f"shard_ingest_speedup@shards={n_str}"] = detail["speedup"]
    return {"ratios": ratios, "stages": stages}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__)
        return 2
    doc = run_gates()
    path = Path(argv[0])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for name, value in sorted(doc["ratios"].items()):
        print(f"{name:32s} {value:10.3f}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
