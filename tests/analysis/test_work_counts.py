"""The exact work-count gate over a traced e2e smoke run."""

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
COMMITTED = json.loads((REPO / "benchmarks" / "work_counts.json").read_text(encoding="utf-8"))


def load_gate():
    path = REPO / "scripts" / "check_work_counts.py"
    spec = importlib.util.spec_from_file_location(path.stem, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def result_matching(committed):
    """A result document, shaped like ``benchmarks.e2e run``'s, that
    carries exactly the committed counts (as floats, as the run writes
    them) beside other layers."""
    return {
        **committed["run"],
        "workloads": {
            workload: {"layers": {"dsp.self_s": 0.5, **{k: float(v) for k, v in counts.items()}}}
            for workload, counts in committed["counts"].items()
        },
    }


def test_committed_counts_gate_the_traced_smoke_run():
    assert COMMITTED["run"] == {"seed": 0, "smoke": True, "trace": True}
    assert "serve" not in COMMITTED["counts"]
    assert COMMITTED["counts"]["ship"].keys() == {
        "dsp.calls", "netsim.kernel.events", "netsim.frames_sent"
    }


def test_equal_counts_pass(tmp_path, capsys):
    gate = load_gate()
    result = tmp_path / "result.json"
    result.write_text(json.dumps(result_matching(COMMITTED)), encoding="utf-8")
    assert gate.check(str(result), str(REPO / "benchmarks" / "work_counts.json")) == 0
    assert "passed" in capsys.readouterr().out


def test_any_difference_fails_either_way():
    gate = load_gate()
    for delta in (1, -1):
        result = result_matching(COMMITTED)
        result["workloads"]["dc_scan"]["layers"]["dsp.calls"] += delta
        failures = gate.evaluate(result, COMMITTED)
        assert len(failures) == 1 and "dc_scan dsp.calls" in failures[0]


def test_missing_count_fails():
    gate = load_gate()
    result = result_matching(COMMITTED)
    del result["workloads"]["intake"]
    failures = gate.evaluate(result, COMMITTED)
    assert failures == ["intake oosm.store.rows: missing from the result"]


def test_other_run_shape_fails_before_counts_are_read():
    gate = load_gate()
    for key, value in (("seed", 1), ("smoke", False), ("trace", False)):
        result = result_matching(COMMITTED)
        result[key] = value
        failures = gate.evaluate(result, COMMITTED)
        assert len(failures) == 1 and failures[0].startswith(f"run {key}=")
