import pytest

from repro.cli import build_parser, main


def test_list_faults(capsys):
    assert main(["list-faults"]) == 0
    out = capsys.readouterr().out
    assert "mc:motor-imbalance" in out
    assert "[FMEA, vibration]" in out
    assert "mc:refrigerant-leak" in out


def test_fleet_accounting(capsys):
    assert main(["fleet", "--ships", "10", "--dcs", "50"]) == 0
    out = capsys.readouterr().out
    assert "per DC:" in out and "fleet:" in out


def test_ema_detects(capsys):
    assert main(["ema", "--stiction-rate", "0.08", "--cycles", "4000"]) == 0
    out = capsys.readouterr().out
    assert "stiction flagged" in out


def test_ema_healthy_reports_nothing(capsys):
    assert main(["ema", "--stiction-rate", "0.0", "--cycles", "300"]) == 0
    out = capsys.readouterr().out
    assert "no stiction detected" in out


def test_demo_runs_scenario(capsys):
    assert main(["demo", "--hours", "1", "--chillers", "1",
                 "--fault", "mc:motor-imbalance"]) == 0
    out = capsys.readouterr().out
    assert "MPROS Browser" in out
    assert "prioritized maintenance list" in out
    assert "reports received:" in out


def test_demo_unknown_fault_errors(capsys):
    assert main(["demo", "--fault", "mc:warp-core-breach"]) == 2
    assert "unknown fault" in capsys.readouterr().err


def test_campaign_summary(capsys):
    assert main(["campaign", "--duration", "600", "--scan", "300"]) == 0
    out = capsys.readouterr().out
    assert "detected" in out
    assert "(healthy control)" in out


def test_metrics_snapshot_covers_subsystems(capsys, tmp_path):
    jsonl = tmp_path / "metrics.jsonl"
    assert main(["metrics", "--hours", "1", "--chillers", "1",
                 "--jsonl", str(jsonl)]) == 0
    import json

    doc = json.loads(capsys.readouterr().out)
    # Acceptance: counters/histograms from >= 5 instrumented subsystems
    # after a scripted DC->PDME run.
    assert len(doc["subsystems"]) >= 5
    for prefix in ("dc.uplink", "netsim.rpc", "hpc.pipeline", "fusion", "pdme"):
        assert prefix in doc["subsystems"]
    assert doc["counters"]["fusion.ingested"] > 0
    assert any(k.startswith("netsim.link.delay_seconds")
               for k in doc["histograms"])
    lines = [json.loads(l) for l in jsonl.read_text().splitlines()]
    assert any(l["type"] == "span" for l in lines)
    assert any(l["type"] == "histogram" for l in lines)


def test_metrics_unknown_fault_errors(capsys):
    assert main(["metrics", "--fault", "mc:warp-core-breach"]) == 2
    assert "unknown fault" in capsys.readouterr().err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


# -- mpros verify ------------------------------------------------------------

def test_verify_all_machines_passes(capsys):
    assert main(["verify", "--all-machines"]) == 0
    out = capsys.readouterr().out
    assert "deployment 'ema'" in out
    assert "deployment 'dc-default'" in out
    assert "0 error(s), 0 warning(s)" in out


def test_verify_lint_src_repro_passes(capsys):
    assert main(["verify", "--lint", "src/repro"]) == 0
    assert "OK" in capsys.readouterr().out


def test_verify_machine_file_flags_defects(capsys, tmp_path):
    from repro.sbfr import MachineSpec, State, Transition, cmp, encode_machine
    from repro.sbfr.spec import Input

    bad = MachineSpec(
        "bad", (State("w"), State("x")),
        (Transition(0, 1, cmp(Input(9), ">", 0.5)),),
    )
    path = tmp_path / "bad.sbfr"
    path.write_bytes(encode_machine(bad))
    assert main(["verify", "--machine", str(path), "--channels", "2"]) == 1
    out = capsys.readouterr().out
    assert "sbfr.channel-range" in out
    assert "channel 9" in out


def test_verify_machine_file_clean_exits_zero(capsys, tmp_path):
    from repro.sbfr import build_spike_machine, encode_machine

    path = tmp_path / "spike.sbfr"
    path.write_bytes(encode_machine(build_spike_machine(0)))
    assert main(["verify", "--machine", str(path),
                 "--channels", "1", "--peers", "1"]) == 0


def test_verify_strict_promotes_warnings(capsys, tmp_path):
    # A machine with a warning-only finding (shadowed transition).
    from repro.sbfr import MachineSpec, State, Transition, cmp, encode_machine
    from repro.sbfr.spec import Always, Input

    warn_only = MachineSpec(
        "warny", (State("a"), State("b")),
        (Transition(0, 1, Always()),
         Transition(0, 1, cmp(Input(0), ">", 0.5)),
         Transition(1, 0, Always())),
    )
    path = tmp_path / "warny.sbfr"
    path.write_bytes(encode_machine(warn_only))
    args = ["verify", "--machine", str(path), "--channels", "1", "--peers", "1"]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args + ["--strict"]) == 1
    assert "sbfr.shadowed-transition" in capsys.readouterr().out


def test_verify_without_targets_is_usage_error(capsys):
    assert main(["verify"]) == 2
    assert "nothing to verify" in capsys.readouterr().err


def test_verify_missing_machine_file_errors(capsys):
    assert main(["verify", "--machine", "/no/such/file.sbfr"]) == 2
    assert "cannot read" in capsys.readouterr().err


# -- mpros score -------------------------------------------------------------

def test_score_single_scenario_quick(capsys, tmp_path):
    jsonl = tmp_path / "cards.jsonl"
    md = tmp_path / "cards.md"
    assert main(["score", "--scenario", "turbine", "--quick",
                 "--jsonl", str(jsonl), "--markdown", str(md)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("turbine-quick:")
    assert "detection" in out
    import json

    lines = jsonl.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["scenario"] == "turbine-quick"
    assert doc["detection_rate"] == 1.0
    report = md.read_text(encoding="utf-8")
    assert "## Prognostic scorecards" in report
    assert "mc:compressor-fouling" in report


def test_score_all_scenarios_quick(capsys):
    assert main(["score", "--all-scenarios", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "chiller-quick:" in out
    assert "turbine-quick:" in out


def test_score_unknown_scenario_errors(capsys):
    assert main(["score", "--scenario", "windmill", "--quick"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_score_without_targets_is_usage_error(capsys):
    assert main(["score"]) == 2
    assert "nothing to score" in capsys.readouterr().err


# -- turbine domain through chaos/verify ------------------------------------

def test_chaos_turbine_scenario_passes(capsys):
    assert main(["chaos", "--scenario", "turbine", "--seed", "11"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_chaos_unknown_scenario_errors(capsys):
    assert main(["chaos", "--scenario", "hurricane"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_verify_covers_turbine_deployment(capsys):
    assert main(["verify", "--all-machines"]) == 0
    out = capsys.readouterr().out
    assert "deployment 'dc-turbine'" in out
    assert "FAIL" not in out


def test_bench_writes_under_ignored_benchmarks_dir(capsys, tmp_path, monkeypatch):
    # The default result path is inside the git-ignored .benchmarks/
    # directory, which the command creates: a bench run leaves no
    # tracked file changed.
    import json

    import repro.bench

    monkeypatch.setattr(repro.bench, "run_bench", lambda quick, shards: {"quick": quick})
    monkeypatch.setattr(repro.bench, "summarize", lambda doc: "summary")
    monkeypatch.chdir(tmp_path)
    args = build_parser().parse_args(["bench", "--quick"])
    assert args.output == ".benchmarks/bench.json"
    assert main(["bench", "--quick"]) == 0
    assert json.loads((tmp_path / ".benchmarks" / "bench.json").read_text()) == {"quick": True}
    assert "wrote .benchmarks/bench.json" in capsys.readouterr().out
