"""The ``mpros`` command-line interface.

Small operational surface over the library: run a demo scenario, a
seeded-fault validation campaign, the Figure-3 EMA demo, or print the
fleet data-rate accounting.

Examples
--------
::

    mpros demo --fault mc:refrigerant-leak --hours 2
    mpros campaign --duration 1800
    mpros ema
    mpros fleet
    mpros metrics --hours 1 --fault mc:motor-imbalance
    mpros list-faults
    mpros chaos --seed 7
    mpros chaos --scenario turbine --seed 11
    mpros score --all-scenarios --quick
    mpros daemon --quick
    mpros daemon --scenario none --ticks 120
    mpros verify --all-machines --lint src/repro
    mpros analyze src/repro
    mpros analyze src/repro --format sarif
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

import numpy as np


def _cmd_list_faults(args: argparse.Namespace) -> int:
    from repro.plant.faults import FMEA_CANDIDATES, FaultKind, PROCESS_FAULTS

    print("Machine conditions the simulator can inject:")
    for kind in FaultKind:
        tags = []
        if kind in FMEA_CANDIDATES:
            tags.append("FMEA")
        tags.append("process" if kind in PROCESS_FAULTS else "vibration")
        print(f"  {kind.condition_id:<34} [{', '.join(tags)}]")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.plant.faults import FaultKind, progressive
    from repro.system import build_mpros_system

    try:
        fault = FaultKind(args.fault)
    except ValueError:
        print(f"unknown fault {args.fault!r}; see `mpros list-faults`", file=sys.stderr)
        return 2
    system = build_mpros_system(n_chillers=args.chillers, seed=args.seed)
    motor = system.units[0].motor
    system.inject_fault(
        motor,
        progressive(fault, onset=0.0, end=args.hours * 3600.0, shape="exponential"),
    )
    system.run(hours=args.hours)
    print(system.browser_screen(motor))
    print()
    print(system.priority_screen())
    print(f"\nreports received: {system.reports_received()}; "
          f"uplink backlog: {system.uplink_backlog()}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.algorithms.dli.engine import DliExpertSystem
    from repro.algorithms.fuzzy.engine import FuzzyDiagnostics
    from repro.algorithms.sbfr_source import SbfrKnowledgeSource
    from repro.validation.seeded import SeededFaultCampaign

    campaign = SeededFaultCampaign(
        sources=[DliExpertSystem(), FuzzyDiagnostics(), SbfrKnowledgeSource()],
        duration=args.duration,
        scan_period=args.scan,
        rng=np.random.default_rng(args.seed),
    )
    records = campaign.run(healthy_controls=2)
    print(f"{'fault':<34} {'detected at':>12}  reported conditions")
    for r in records:
        label = r.fault.condition_id if r.fault else "(healthy control)"
        when = f"{r.first_detection:.0f}s" if np.isfinite(r.first_detection) else "—"
        print(f"{label:<34} {when:>12}  {sorted(r.predicted_conditions)}")
    print(f"\n{campaign.score(records, onset=campaign.onset).describe()}")
    return 0


def _cmd_ema(args: argparse.Namespace) -> int:
    from repro.plant.ema import EmaSimulator
    from repro.sbfr.interpreter import SbfrSystem
    from repro.sbfr.library import build_spike_machine, build_stiction_machine

    system = SbfrSystem(channels=["current", "cpos"])
    system.add_machine(build_spike_machine(0, self_index=0))
    system.add_machine(build_stiction_machine(1, spike_machine=0, self_index=1))
    rng = np.random.default_rng(args.seed)
    ema = EmaSimulator(stiction_rate=args.stiction_rate)
    for cycle in range(args.cycles):
        current, cpos = ema.cycle(rng)
        system.cycle({"current": current, "cpos": cpos})
        if system.status(1) & 1:
            count = int(system.states[1].locals[1])
            print(f"stiction flagged at cycle {cycle} "
                  f"after {count} uncommanded spikes — seize-up imminent")
            return 0
    print(f"no stiction detected in {args.cycles} cycles "
          f"(rate {args.stiction_rate})")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Scripted DC→PDME run, then dump the unified metrics snapshot."""
    import json

    from repro.obs.export import export_jsonl, snapshot_json
    from repro.obs.registry import MetricsRegistry
    from repro.plant.faults import FaultKind, progressive
    from repro.system import build_mpros_system

    registry = MetricsRegistry()
    system = build_mpros_system(
        n_chillers=args.chillers, seed=args.seed, metrics=registry
    )
    if args.fault:
        try:
            fault = FaultKind(args.fault)
        except ValueError:
            print(f"unknown fault {args.fault!r}; see `mpros list-faults`",
                  file=sys.stderr)
            return 2
        system.inject_fault(
            system.units[0].motor,
            progressive(fault, onset=0.0, end=args.hours * 3600.0,
                        shape="exponential"),
        )
    system.run(hours=args.hours)
    if args.jsonl:
        tracer = system.dcs[0].tracer if system.dcs else None
        with open(args.jsonl, "w", encoding="utf-8") as fp:
            lines = export_jsonl(registry, fp, clock=system.kernel.clock,
                                 tracer=tracer)
        print(f"wrote {lines} series to {args.jsonl}", file=sys.stderr)
    doc = json.loads(snapshot_json(registry))
    doc["subsystems"] = registry.subsystems()
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run a chaos scenario and print the resilience report.

    Exit code 1 when the run misses the survivability bar (lost or
    duplicated reports, shedding, or a breaker stuck open), so CI can
    gate on it directly.
    """
    from repro.chaos.engine import run_scenario
    from repro.chaos.scenario import canonical_scenario, turbine_scenario
    from repro.obs.registry import use_registry

    factories = {"canonical": canonical_scenario, "turbine": turbine_scenario}
    if args.scenario not in factories:
        print(f"unknown scenario {args.scenario!r}; "
              f"know: {', '.join(sorted(factories))}", file=sys.stderr)
        return 2
    scenario = factories[args.scenario](seed=args.seed)
    with use_registry():
        report = run_scenario(scenario, n_chillers=args.chillers or None)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_daemon(args: argparse.Namespace) -> int:
    """Run the always-on streaming daemon, optionally under chaos.

    With ``--scenario daemon`` (the default) the loop runs the daemon
    chaos drill — storm + crash + clock-hold + heartbeat flap — and
    exits 1 unless conservation holds, every DC ends ALIVE, and the
    worst watchdog recovery beats the ceiling; CI gates on this.  With
    ``--scenario none`` it runs a plain system (machinery faults only)
    and always exits 0.
    """
    from repro.chaos.scenario import daemon_scenario
    from repro.obs.registry import use_registry
    from repro.stream.daemon import DaemonConfig, StreamDaemon
    from repro.stream.drill import drill_config, run_daemon_drill

    if args.scenario not in ("daemon", "none"):
        print(f"unknown scenario {args.scenario!r}; know: daemon, none",
              file=sys.stderr)
        return 2
    ticks = args.ticks if args.ticks > 0 else None
    if args.scenario == "daemon":
        scenario = daemon_scenario(seed=args.seed, quick=args.quick)
        config = drill_config(tick_interval=args.tick_interval)
        with use_registry():
            report = run_daemon_drill(
                scenario=scenario, ticks=ticks, config=config
            )
        print(report.summary())
        return 0 if report.ok else 1
    from repro.plant.faults import FaultKind, seeded
    from repro.system import build_mpros_system

    with use_registry():
        system = build_mpros_system(
            n_chillers=max(2, args.chillers), seed=args.seed
        )
        system.inject_fault(
            system.units[0].motor,
            seeded(FaultKind.MOTOR_IMBALANCE, onset=0.0, severity=0.8),
        )
        daemon = StreamDaemon(
            system, DaemonConfig(tick_interval=args.tick_interval)
        )
        daemon_report = daemon.run(ticks if ticks is not None else 60)
    print(daemon_report.summary())
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.hpc.datarates import FleetConfig, fleet_data_rate

    config = FleetConfig(n_ships=args.ships, dcs_per_ship=args.dcs)
    rates = fleet_data_rate(config)
    print("Fleet data-rate accounting (§1):")
    print(f"  per DC:   {rates.per_dc:>14,.0f} points/s")
    print(f"  per ship: {rates.per_ship:>14,.0f} points/s ({config.dcs_per_ship} DCs)")
    print(f"  fleet:    {rates.fleet:>14,.0f} points/s ({config.n_ships} ships)")
    return 0


def _render_formatted(report: "object", fmt: str) -> None:
    """Print a VerificationReport's diagnostics in the chosen format."""
    from repro.analysis.output import render_jsonl, render_sarif
    from repro.analysis.report import VerificationReport

    assert isinstance(report, VerificationReport)
    if fmt == "jsonl":
        text = render_jsonl(report.diagnostics)
        if text:
            print(text)
    elif fmt == "sarif":
        print(render_sarif(report.diagnostics))
    else:
        for diag in report.diagnostics:
            print(diag.render())


def _cmd_verify(args: argparse.Namespace) -> int:
    """Static verification: SBFR bytecode and/or determinism lints.

    Exit 0 when clean, 1 when diagnostics fail the gate (errors; also
    warnings under ``--strict``), 2 on misuse.
    """
    from repro.analysis.lint import lint_paths
    from repro.analysis.sbfr_verifier import verify_bytes, verify_set
    from repro.analysis.report import VerificationReport
    from repro.common.errors import AnalysisError

    # Machine-readable formats keep stdout pure: status goes to stderr.
    status_stream = sys.stdout if args.format == "text" else sys.stderr

    if not (args.all_machines or args.machine or args.lint):
        print("nothing to verify: pass --all-machines, --machine and/or --lint",
              file=sys.stderr)
        return 2
    reports: list[VerificationReport] = []
    try:
        if args.all_machines:
            from repro.algorithms.sbfr_source import SbfrKnowledgeSource
            from repro.sbfr.library import canonical_deployments

            for name, (channels, specs) in sorted(canonical_deployments().items()):
                rep = verify_set(specs, n_channels=len(channels))
                print(f"deployment {name!r}: {len(specs)} machine(s), "
                      f"{len(channels)} channel(s): "
                      f"{'OK' if not rep.errors else 'FAIL'}",
                      file=status_stream)
                reports.append(rep)
            from repro.algorithms.sbfr_source import default_turbine_watches

            for dep_name, source in (
                ("dc-default", SbfrKnowledgeSource()),
                ("dc-turbine",
                 SbfrKnowledgeSource(watches=default_turbine_watches())),
            ):
                specs = source.deployed_specs()
                rep = verify_set(specs, n_channels=len(source.channel_names()))
                print(f"deployment {dep_name!r}: {len(specs)} machine(s), "
                      f"{len(source.channel_names())} channel(s): "
                      f"{'OK' if not rep.errors else 'FAIL'}",
                      file=status_stream)
                reports.append(rep)
        for path in args.machine or []:
            try:
                with open(path, "rb") as fp:
                    data = fp.read()
            except OSError as exc:
                print(f"cannot read {path}: {exc}", file=sys.stderr)
                return 2
            rep = verify_bytes(
                data,
                name=path,
                n_channels=args.channels,
                n_machines=args.peers,
            )
            print(f"machine {path}: {len(data)} byte(s): "
                  f"{'OK' if not rep.errors else 'FAIL'}",
                  file=status_stream)
            reports.append(rep)
        if args.lint:
            rep = lint_paths(args.lint)
            print(f"lint {' '.join(args.lint)}: "
                  f"{'OK' if not rep.errors else 'FAIL'}",
                  file=status_stream)
            reports.append(rep)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    merged = VerificationReport()
    for rep in reports:
        merged = merged.merged(rep)
    _render_formatted(merged, args.format)
    print(f"{len(merged.errors)} error(s), {len(merged.warnings)} warning(s)",
          file=status_stream)
    return merged.exit_code(strict=args.strict)


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Whole-program effect & concurrency analysis (``flow.*``/``conc.*``).

    Findings already covered by the committed baseline are reported as
    suppressed and do not fail the run; exit 1 only on *new* errors (or
    new warnings under ``--strict``), 2 on misuse.
    """
    from repro.analysis.analyze import analyze_paths
    from repro.analysis.cache import SummaryCache
    from repro.analysis.output import Baseline
    from repro.analysis.report import VerificationReport
    from repro.common.errors import AnalysisError

    status_stream = sys.stdout if args.format == "text" else sys.stderr
    cache = None if args.no_cache else SummaryCache(args.cache_dir or None)
    try:
        report = analyze_paths(args.paths, cache=cache)
        baseline = Baseline.load(args.baseline)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fresh, known = baseline.split(report.diagnostics)
    gate = VerificationReport(fresh)
    _render_formatted(gate, args.format)
    if cache is not None:
        print(f"analyze cache: {cache.hits} hit(s), {cache.misses} miss(es)",
              file=status_stream)
    print(f"analyze {' '.join(str(p) for p in args.paths)}: "
          f"{'OK' if not gate.errors else 'FAIL'} "
          f"({len(gate.errors)} error(s), {len(gate.warnings)} warning(s), "
          f"{len(known)} baseline-suppressed)",
          file=status_stream)
    return gate.exit_code(strict=args.strict)


def _cmd_score(args: argparse.Namespace) -> int:
    """Run the per-scenario prognostic benchmark suite.

    Exit 1 when any scored scenario misses every fault (detection rate
    0), so CI can gate on a catastrophically broken stack; quality
    regressions are caught by the golden scorecards instead.
    """
    from repro.common.errors import MprosError
    from repro.validation.scenarios import (
        get_scenario,
        run_scenario_suite,
        scenario_names,
    )

    if args.all_scenarios:
        names = list(scenario_names())
    elif args.scenario:
        names = list(args.scenario)
    else:
        print("nothing to score: pass --scenario NAME or --all-scenarios",
              file=sys.stderr)
        return 2
    try:
        specs = [get_scenario(name, quick=args.quick) for name in names]
    except MprosError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cards = []
    for spec in specs:
        card = run_scenario_suite(spec, seed=args.seed)
        cards.append(card)
        print(card.summary())
    if args.jsonl:
        with open(args.jsonl, "w", encoding="utf-8") as fp:
            for card in cards:
                fp.write(card.jsonl_line() + "\n")
        print(f"wrote {len(cards)} scorecard(s) to {args.jsonl}", file=sys.stderr)
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as fp:
            fp.write("## Prognostic scorecards\n\n")
            for card in cards:
                fp.write(card.to_markdown() + "\n")
        print(f"wrote markdown report to {args.markdown}", file=sys.stderr)
    return 0 if all(card.detection_rate > 0 for card in cards) else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve the fleet query gateway over HTTP.

    Boots a demo fleet (the deterministic demo report stream fused
    through a file-backed sharded PDME), then serves it: cached fleet-health
    documents, keyset-paged report listings off read-only replica
    connections, alarms, per-object health, and bulk report POSTs that
    funnel through the shard router.  ``--store-dir`` persists the
    partition logs between runs; without it they live in a temp dir
    for the lifetime of the process.
    """
    import tempfile
    import time as _time

    from repro.gateway.service import gateway_for_sharded
    from repro.gateway.server import GatewayHTTPServer
    from repro.oosm.model import ShipModel
    from repro.pdme.demo import demo_reports
    from repro.pdme.shard import ShardedPdme

    reports, report_ids = demo_reports(quick=args.quick)
    with tempfile.TemporaryDirectory() as tmp:
        store_dir = Path(args.store_dir) if args.store_dir else Path(tmp)
        store_dir.mkdir(parents=True, exist_ok=True)
        pdme = ShardedPdme(
            args.shards,
            store_paths=[
                store_dir / f"shard-{i}.sqlite" for i in range(args.shards)
            ],
        )
        model = ShipModel()
        for oid in sorted({r.sensed_object_id for r in reports}):
            model.create("rotating-machine", id=oid, name=oid)
        written = pdme.submit_batch(reports, report_ids)
        gateway = gateway_for_sharded(
            model,
            pdme,
            timer=_time.perf_counter,  # mpros: allow[lint.wall-clock]
        )
        server = GatewayHTTPServer((args.host, args.port), gateway)
        host, port = server.server_address[:2]
        tail = (
            f"({args.max_requests} requests, then exit)"
            if args.max_requests is not None
            else "(Ctrl-C to stop)"
        )
        print(f"serving {written} reports on http://{host}:{port} {tail}",
              flush=True)
        try:
            server.serve_requests(args.max_requests)
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
            pdme.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``mpros`` argument parser (exposed for testing/docs)."""
    parser = argparse.ArgumentParser(
        prog="mpros",
        description="MPROS condition-based-maintenance demonstrator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", help="run a full-system fault scenario")
    p.add_argument("--fault", default="mc:motor-imbalance")
    p.add_argument("--hours", type=float, default=2.0)
    p.add_argument("--chillers", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("campaign", help="seeded-fault validation campaign")
    p.add_argument("--duration", type=float, default=1800.0)
    p.add_argument("--scan", type=float, default=120.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("ema", help="Figure-3 EMA stiction demo")
    p.add_argument("--cycles", type=int, default=4000)
    p.add_argument("--stiction-rate", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_ema)

    p = sub.add_parser(
        "metrics",
        help="run a scripted DC→PDME scenario and dump the metrics snapshot",
    )
    p.add_argument("--fault", default="mc:motor-imbalance",
                   help="machine condition to inject ('' for a healthy run)")
    p.add_argument("--hours", type=float, default=1.0)
    p.add_argument("--chillers", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jsonl", default="",
                   help="also export JSON-lines records to this path")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser(
        "chaos",
        help="run a seeded chaos scenario and print the resilience report",
    )
    p.add_argument("--scenario", default="canonical")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--chillers", type=int, default=0,
                   help="system size (0 = sized from the scenario)")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "daemon",
        help="run the always-on streaming daemon (optionally under chaos)",
    )
    p.add_argument("--scenario", default="daemon",
                   help="'daemon' = chaos drill (exit 1 on failure); "
                        "'none' = plain streaming run")
    p.add_argument("--ticks", type=int, default=0,
                   help="exact tick count (0 = cover the scenario window)")
    p.add_argument("--tick-interval", type=float, default=60.0,
                   help="nominal seconds of simulated time per tick")
    p.add_argument("--quick", action="store_true",
                   help="compressed drill timeline for CI (~30 ticks)")
    p.add_argument("--seed", type=int, default=13)
    p.add_argument("--chillers", type=int, default=2,
                   help="system size for --scenario none")
    p.set_defaults(func=_cmd_daemon)

    p = sub.add_parser("fleet", help="fleet data-rate accounting")
    p.add_argument("--ships", type=int, default=30)
    p.add_argument("--dcs", type=int, default=200)
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser(
        "score",
        help="score the prognostic benchmark scenarios (validation suite)",
    )
    p.add_argument("--scenario", action="append", metavar="NAME",
                   help="scenario to score (repeatable); see repro.validation")
    p.add_argument("--all-scenarios", action="store_true",
                   help="score every registered scenario")
    p.add_argument("--quick", action="store_true",
                   help="compressed timelines for CI (same faults, "
                        "shorter runs)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jsonl", default="",
                   help="write one compact JSON scorecard per line here")
    p.add_argument("--markdown", default="",
                   help="write a markdown scorecard report here")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser(
        "serve",
        help="serve the fleet query gateway over HTTP",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787,
                   help="TCP port (0 binds an ephemeral port)")
    p.add_argument("--shards", type=int, default=2, metavar="N",
                   help="partition count for the file-backed PDME")
    p.add_argument("--store-dir", default=None, metavar="DIR",
                   help="persist partition logs here (default: temp dir)")
    p.add_argument("--quick", action="store_true",
                   help="small demo fleet (8 machines)")
    p.add_argument("--max-requests", type=int, default=None, metavar="N",
                   help="exit after N requests (smoke tests)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "verify",
        help="static verification: SBFR bytecode checks and determinism lints",
    )
    p.add_argument("--all-machines", action="store_true",
                   help="verify every library deployment and the default "
                        "DC watch deployment")
    p.add_argument("--machine", action="append", metavar="FILE",
                   help="verify an encoded SBFR machine file (repeatable)")
    p.add_argument("--channels", type=int, default=None,
                   help="input channel count for --machine range checks")
    p.add_argument("--peers", type=int, default=None,
                   help="machine count for --machine peer range checks")
    p.add_argument("--lint", nargs="+", metavar="PATH",
                   help="run the determinism/safety linter over these "
                        "files or directories")
    p.add_argument("--strict", action="store_true",
                   help="warnings also fail (exit 1)")
    p.add_argument("--format", choices=("text", "jsonl", "sarif"),
                   default="text",
                   help="diagnostic output format (machine formats keep "
                        "stdout pure; status goes to stderr)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "analyze",
        help="whole-program effect & concurrency analysis (flow.*/conc.*)",
    )
    p.add_argument("paths", nargs="+", metavar="PATH",
                   help="files or directories to analyze (e.g. src/repro)")
    p.add_argument("--format", choices=("text", "jsonl", "sarif"),
                   default="text",
                   help="diagnostic output format (machine formats keep "
                        "stdout pure; status goes to stderr)")
    p.add_argument("--baseline", default="analysis/baseline.json",
                   help="committed suppression file; only findings not in "
                        "it fail the run")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the content-hash summary cache")
    p.add_argument("--cache-dir", default="",
                   help="summary cache directory "
                        "(default .mpros-cache/analysis)")
    p.add_argument("--strict", action="store_true",
                   help="warnings also fail (exit 1)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("list-faults", help="injectable machine conditions")
    p.set_defaults(func=_cmd_list_faults)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
