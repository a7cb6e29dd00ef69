"""Multi-DC replay executor: determinism, merging; and the ratio gate script."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.common.errors import MprosError
from repro.hpc import DcReplaySpec, merge_fleet_reports, replay_dc, replay_fleet

REPO_ROOT = Path(__file__).resolve().parents[2]


def _key(r):
    return (
        r.sensed_object_id, r.machine_condition_id, r.timestamp,
        r.severity, r.belief, r.explanation, r.dc_id, r.degraded,
    )


@pytest.fixture(scope="module")
def small_fleet_specs():
    from repro.system import build_fleet_specs

    return build_fleet_specs(n_dcs=3, machines_per_dc=1, hours=0.5, seed=3)


def test_replay_dc_is_deterministic(small_fleet_specs):
    spec = small_fleet_specs[0]
    a = [_key(r) for r in replay_dc(spec)]
    b = [_key(r) for r in replay_dc(spec)]
    assert a == b
    assert a, "faulted DC produced no reports"


def test_serial_and_parallel_replay_bit_identical(small_fleet_specs):
    serial = replay_fleet(small_fleet_specs, n_workers=1)
    pooled = replay_fleet(small_fleet_specs, n_workers=3)
    assert [_key(r) for r in serial] == [_key(r) for r in pooled]


def test_merge_is_stable_and_timestamp_sorted(small_fleet_specs):
    streams = [replay_dc(s) for s in small_fleet_specs]
    merged = merge_fleet_reports(streams)
    times = [r.timestamp for r in merged]
    assert times == sorted(times)
    # Same-timestamp reports keep DC order (stable sort).
    assert len(merged) == sum(len(s) for s in streams)
    assert merge_fleet_reports(streams) == merged


def test_spec_machine_ids_are_channel_ordered():
    spec = DcReplaySpec(dc_index=2, seed=0, n_machines=3)
    assert spec.machine_ids() == (
        "obj:fleet-dc2-m0", "obj:fleet-dc2-m1", "obj:fleet-dc2-m2"
    )


def test_replay_validation_errors():
    with pytest.raises(MprosError):
        replay_dc(DcReplaySpec(dc_index=0, seed=0, n_machines=0))
    with pytest.raises(MprosError):
        replay_fleet([], n_workers=0)


def test_replay_fleet_to_model_posts_all_reports(small_fleet_specs):
    from repro.system import replay_fleet_to_model

    model, reports = replay_fleet_to_model(small_fleet_specs)
    assert reports, "fleet scenario produced no reports"
    assert model.report_count == len(reports)
    for spec in small_fleet_specs:
        for machine_id in spec.machine_ids():
            assert machine_id in model


# -- regression gate script ------------------------------------------------

def test_regression_gate_passes_and_fails(tmp_path):
    script = REPO_ROOT / "scripts" / "check_bench_regression.py"
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"ratios": {"sbfr_grid_speedup": 2.0}}))

    good = tmp_path / "good.json"
    good.write_text(json.dumps({"ratios": {"sbfr_grid_speedup": 1.9}}))
    ok = subprocess.run(
        [sys.executable, str(script), str(good), str(baseline)],
        capture_output=True, text=True,
    )
    assert ok.returncode == 0, ok.stdout + ok.stderr

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"ratios": {"sbfr_grid_speedup": 1.0}}))
    fail = subprocess.run(
        [sys.executable, str(script), str(bad), str(baseline)],
        capture_output=True, text=True,
    )
    assert fail.returncode == 1
    assert "REGRESSION" in fail.stdout

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"ratios": {}}))
    gone = subprocess.run(
        [sys.executable, str(script), str(missing), str(baseline)],
        capture_output=True, text=True,
    )
    assert gone.returncode == 1
