"""End-to-end smoke: every workload at tiny sizes, traced and untraced."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e.metrics import E2E, HEADLINE, LAYER_METRICS

ROOT = Path(__file__).resolve().parents[3]

QUANTILES = (1, 50, 90, 95)


def _latencies(series):
    return {f"{series}_p{q}_ms": "ms" for q in QUANTILES}


#: The end-to-end metrics each workload must print, with their units.
EXPECTED = {
    "ship": {
        **_latencies("report_latency"),
        "realtime_x": "sim-s/s",
        "fused_per_busy_s": "reports/s",
    },
    "dc_scan": {**_latencies("cycle"), "analyses_per_s": "analyses/s"},
    "intake": {**_latencies("batch"), "reports_per_s": "reports/s"},
    "serve": {
        **_latencies("query"),
        "write_p95_ms": "ms",
        "queries_per_busy_s": "queries/s",
    },
}
EVERYWHERE = {"setup_s": "s", "peak_rss_mb": "MB", "failed_ratio": "ratio"}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--smoke", "--trace", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc, out


def test_smoke_run_passes_every_check(smoke):
    proc, out = smoke
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    doc = json.loads((out / "result.json").read_text())
    assert set(doc["workloads"]) == set(EXPECTED)
    for workload, entry in doc["workloads"].items():
        assert entry["checks"] and all(entry["checks"].values()), (workload, entry["checks"])
        assert "traced_and_untraced_outputs_identical" in entry["checks"]
        assert entry["failed"] == 0 and entry["attempted"] > 0


def test_smoke_prints_every_metric_with_its_unit(smoke):
    proc, out = smoke
    lines = proc.stdout.splitlines()
    for workload, metrics in EXPECTED.items():
        start = next(i for i, line in enumerate(lines) if line.startswith(f"== {workload} "))
        block = []
        for line in lines[start + 1:]:
            if line.startswith("== "):
                break
            block.append(line.split())
        printed = {row[0]: row[2] for row in block if len(row) >= 3 and not row[0].startswith("[")}
        for name, unit in {**metrics, **EVERYWHERE}.items():
            assert printed.get(name) == unit, (workload, name, printed.get(name))
        layers = {row[1]: row[3] for row in block if row and row[0] == "[layer]"}
        for name, unit, _ in LAYER_METRICS:
            assert layers.get(name) == unit, (workload, name)
    for workload in EXPECTED:
        trace = json.loads((out / f"trace-{workload}.json").read_text())
        assert trace["fields"][0] == "name" and trace["spans"]


def test_traced_spans_cover_the_busy_time(smoke):
    _, out = smoke
    doc = json.loads((out / "result.json").read_text())
    for workload, entry in doc["workloads"].items():
        coverage = entry["layers"]["bench.self_time_coverage"]
        assert 0.9 <= coverage <= 1.1, (workload, coverage)
        assert entry["layers"]["bench.trace_overhead"] > 0


def test_benchmark_json_matches_the_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(EXPECTED) == list(HEADLINE)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (name, unit, better) for name, (unit, better) in E2E.items()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(LAYER_METRICS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_bench_entry_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench.py", "--workload", "ship", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
