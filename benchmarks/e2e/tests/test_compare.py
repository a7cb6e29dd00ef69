import json

from benchmarks.e2e.cli import BENCHMARK_JSON
from benchmarks.e2e.compare import compare, judge


def test_judge_within_and_past_the_bound():
    a = [10.0, 10.2, 9.9, 10.1, 10.0]
    assert judge(a, [10.5, 10.6, 10.4, 10.5, 10.7], 0.25, "lower") == "unchanged"
    assert judge(a, [14.0, 14.1, 13.9, 14.2, 14.0], 0.25, "lower") == "worse"
    assert judge(a, [14.0, 14.1, 13.9, 14.2, 14.0], 0.25, "higher") == "better"


def test_without_a_bound_only_separated_runs_get_a_verdict():
    a = [10.0, 10.2, 9.9, 10.1, 10.0]
    assert judge(a, [10.3, 10.4, 10.3, 10.5, 10.6], 0.0, "lower") == "worse"
    assert judge(a, [10.0, 10.4, 9.8, 10.5, 10.6], 0.0, "lower") == "unresolved"


def _write_runs(directory, values):
    for i, (p1, rate) in enumerate(values):
        run = directory / str(i)
        run.mkdir(parents=True)
        metrics = {
            "cycle_p1_ms": {"value": p1, "unit": "ms", "n": 1000},
            "analyses_per_s": {"value": rate, "unit": "analyses/s", "n": 1000},
        }
        doc = {"workloads": {"dc_scan": {"metrics": metrics}}}
        (run / "result.json").write_text(json.dumps(doc))


def test_compare_judges_gated_metrics_by_bound_and_rates_as_higher_better(tmp_path, capsys):
    _write_runs(tmp_path / "a", [(15.0, 180.0), (15.2, 181.0), (14.9, 179.0)])
    _write_runs(tmp_path / "b", [(15.6, 190.0), (15.5, 191.0), (15.7, 192.0)])
    assert compare(tmp_path / "a", tmp_path / "b", BENCHMARK_JSON) == 0
    verdicts = {
        line.split()[1]: line.split()[-1]
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("dc_scan")
    }
    assert verdicts == {"cycle_p1_ms": "unchanged", "analyses_per_s": "better"}
