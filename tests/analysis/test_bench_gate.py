"""The bench-regression gate script: tolerant of baseline drift.

A result document carrying a stage the committed baseline does not know
must produce a warning naming the key and exit 0 — not crash with a
KeyError — so adding a benchmark stage does not break CI until its
baseline lands.
"""

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def load_module(relpath):
    path = REPO / relpath
    spec = importlib.util.spec_from_file_location(path.stem, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def load_gate():
    return load_module("scripts/check_bench_regression.py")


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_known_stages_pass(tmp_path, capsys):
    gate = load_gate()
    result = write(tmp_path, "result.json", {"ratios": {"a": 2.0}})
    baseline = write(tmp_path, "baseline.json", {"ratios": {"a": 1.5}})
    assert gate.check(result, baseline) == 0
    assert "passed" in capsys.readouterr().out


def test_regression_fails(tmp_path, capsys):
    gate = load_gate()
    result = write(tmp_path, "result.json", {"ratios": {"a": 1.0}})
    baseline = write(tmp_path, "baseline.json", {"ratios": {"a": 2.0}})
    assert gate.check(result, baseline) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_stage_missing_from_baseline_warns_and_exits_zero(tmp_path, capsys):
    gate = load_gate()
    result = write(
        tmp_path, "result.json", {"ratios": {"a": 2.0, "new_stage": 1.1}}
    )
    baseline = write(tmp_path, "baseline.json", {"ratios": {"a": 1.5}})
    assert gate.check(result, baseline) == 0
    out = capsys.readouterr().out
    assert "warning" in out
    assert "new_stage" in out  # the offending key is named


def test_baseline_without_ratios_section_does_not_crash(tmp_path, capsys):
    gate = load_gate()
    result = write(tmp_path, "result.json", {"ratios": {"a": 2.0}})
    baseline = write(tmp_path, "baseline.json", {})
    assert gate.check(result, baseline) == 0
    assert "warning" in capsys.readouterr().out


def test_stage_missing_from_result_still_fails(tmp_path, capsys):
    gate = load_gate()
    result = write(tmp_path, "result.json", {"ratios": {}})
    baseline = write(tmp_path, "baseline.json", {"ratios": {"a": 1.5}})
    assert gate.check(result, baseline) == 1
    assert "missing" in capsys.readouterr().out


def test_evaluate_is_pure_and_tolerance_bounded():
    gate = load_gate()
    # Exactly at the floor (baseline * tolerance) passes; a hair under fails.
    at_floor = gate.evaluate({"a": 0.8}, {"a": 1.0}, tolerance=0.8)
    assert at_floor.passed and not at_floor.warnings
    under = gate.evaluate({"a": 0.7999}, {"a": 1.0}, tolerance=0.8)
    assert not under.passed
    assert "a:" in under.failures[0]


def test_evaluate_separates_warnings_from_failures():
    gate = load_gate()
    report = gate.evaluate({"new": 5.0}, {"gated": 2.0})
    # The ungated stage warns; the unmeasured gated stage fails.
    assert any("new" in w for w in report.warnings)
    assert any("gated" in f for f in report.failures)
    assert not report.passed


def test_evaluate_empty_inputs_pass():
    gate = load_gate()
    report = gate.evaluate({}, {})
    assert report.passed
    assert report.lines == [] and report.warnings == []


def test_optional_stage_missing_from_result_warns(tmp_path, capsys):
    gate = load_gate()
    result = write(tmp_path, "result.json", {"ratios": {"a": 2.0}})
    baseline = write(
        tmp_path,
        "baseline.json",
        {"ratios": {"a": 1.5, "newer": 3.0}, "optional": ["newer"]},
    )
    assert gate.check(result, baseline) == 0
    out = capsys.readouterr().out
    assert "warning" in out and "newer" in out


def test_optional_stage_present_is_still_gated(tmp_path, capsys):
    gate = load_gate()
    # Optional only affects absence: a measured regression still fails.
    result = write(tmp_path, "result.json", {"ratios": {"newer": 1.0}})
    baseline = write(
        tmp_path,
        "baseline.json",
        {"ratios": {"newer": 3.0}, "optional": ["newer"]},
    )
    assert gate.check(result, baseline) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_evaluate_optional_param_defaults_to_required():
    gate = load_gate()
    report = gate.evaluate({}, {"a": 1.0})
    assert not report.passed
    report = gate.evaluate({}, {"a": 1.0}, optional=("a",))
    assert report.passed
    assert any("a" in w for w in report.warnings)


def test_pre_pr_result_checks_against_committed_baseline(tmp_path, capsys):
    # A result document without the optional ratios (a 1-core host,
    # or one from before those stages) must still pass the baseline.
    gate = load_gate()
    baseline_path = REPO / "benchmarks" / "baseline.json"
    doc = json.loads(baseline_path.read_text(encoding="utf-8"))
    old = {k: v for k, v in doc["ratios"].items() if k not in doc["optional"]}
    result = write(tmp_path, "result.json", {"ratios": old})
    assert gate.check(result, str(baseline_path)) == 0
    assert "warning" in capsys.readouterr().out


def test_shard_metadata_gates_against_exact_baseline_key():
    gate = load_gate()
    # The exactly matching baseline key wins over the base-name entry.
    report = gate.evaluate(
        {"shard_ingest_speedup@shards=4": 1.0},
        {"shard_ingest_speedup": 0.5, "shard_ingest_speedup@shards=4": 2.0},
        optional=("shard_ingest_speedup",),
    )
    assert not report.passed
    assert "shard_ingest_speedup@shards=4" in report.failures[0]


def test_shard_metadata_falls_back_to_base_name():
    gate = load_gate()
    # No exact key: the per-shard measurement is compared against the
    # base-name floor instead of being warned-and-skipped.
    ok = gate.evaluate(
        {"shard_ingest_speedup@shards=4": 3.0}, {"shard_ingest_speedup": 2.5}
    )
    assert ok.passed and not ok.warnings
    assert any("baseline key 'shard_ingest_speedup'" in line for line in ok.lines)
    bad = gate.evaluate(
        {"shard_ingest_speedup@shards=4": 1.0}, {"shard_ingest_speedup": 2.5}
    )
    assert not bad.passed


def test_base_floor_covered_by_parameterized_measurements():
    gate = load_gate()
    # A baseline base name satisfied only via name@shards=N entries is
    # not "missing from bench result".
    report = gate.evaluate(
        {"shard_ingest_speedup@shards=2": 3.0},
        {"shard_ingest_speedup": 2.5},
    )
    assert report.passed
    assert not report.failures and not report.warnings


def test_unmeasured_shard_count_is_optional_on_small_hosts():
    gate = load_gate()
    # A 1-core host emits no shard ratios at all; the optional listing
    # keeps the gate green with a warning.
    report = gate.evaluate(
        {"a": 2.0},
        {"a": 1.5, "shard_ingest_speedup@shards=4": 2.5},
        optional=("shard_ingest_speedup@shards=4",),
    )
    assert report.passed
    assert any("shard_ingest_speedup@shards=4" in w for w in report.warnings)


def test_metadata_with_unknown_base_still_warns():
    gate = load_gate()
    report = gate.evaluate({"mystery@shards=2": 1.0}, {"a": 1.0})
    assert any("mystery@shards=2" in w for w in report.warnings)
    assert not report.passed  # 'a' is still missing from the result


def test_committed_baseline_matches_bench_stages(tmp_path, capsys):
    # The real baseline file floors exactly the ratios the gate script
    # writes, and every committed key verifies against itself cleanly.
    gate = load_gate()
    baseline_path = REPO / "benchmarks" / "baseline.json"
    doc = json.loads(baseline_path.read_text(encoding="utf-8"))
    assert sorted(doc["ratios"]) == sorted(load_module("benchmarks/gates.py").RATIOS)
    assert set(doc["optional"]) <= set(doc["ratios"])
    result = write(tmp_path, "result.json", {"ratios": doc["ratios"]})
    assert gate.check(result, str(baseline_path)) == 0
