"""Golden shard-invariance: N shards fuse byte-identically to one.

The oracle discipline of the parallel fleet replay, applied to the
sharded PDME: the canonical fused model at every shard count must match
the single-engine rendering byte for byte, the multi-process executor
must match the in-process router, and the scenario scorecards at any
shard count must still match the committed ``tests/golden/`` masters.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.fusion.engine import KnowledgeFusionEngine
from repro.fusion.groups import default_chiller_groups
from repro.pdme.demo import demo_reports
from repro.pdme.shard import ShardedPdme, parallel_shard_ingest
from repro.protocol.canonical import canonical_dumps

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"

pytestmark = pytest.mark.shard


def _check_golden(name: str, payload: str) -> None:
    path = GOLDEN_DIR / name
    if os.environ.get("GOLDEN_REGEN"):
        path.write_text(payload, encoding="utf-8")
        return
    assert path.exists(), (
        f"missing golden file {path}; regenerate with GOLDEN_REGEN=1"
    )
    assert payload == path.read_text(encoding="utf-8"), (
        f"{name} drifted from its golden master; if the change is "
        "intentional, regenerate with GOLDEN_REGEN=1 and review the diff"
    )


@pytest.fixture(scope="module")
def workload():
    return demo_reports(quick=False)


@pytest.fixture(scope="module")
def oracle_json(workload):
    """The unsharded single-engine fused model, canonical bytes."""
    reports, _ = workload
    engine = KnowledgeFusionEngine(default_chiller_groups())
    engine.ingest_batch(list(reports))
    as_of = max(r.timestamp for r in reports)
    return canonical_dumps(engine.fused_snapshot(as_of=as_of))


def test_oracle_snapshot_matches_golden_master(oracle_json):
    _check_golden("fused_ingest_workload.json", oracle_json)


def test_sharded_router_is_byte_identical_to_single_engine(
    workload, oracle_json, n_shards
):
    reports, report_ids = workload
    pdme = ShardedPdme(n_shards)
    try:
        # Deliver in several batches (the realistic intake shape).
        step = 257
        for s in range(0, len(reports), step):
            pdme.submit_batch(reports[s : s + step], report_ids[s : s + step])
        assert pdme.report_count == len(reports)
        assert pdme.canonical_fused_json() == oracle_json
    finally:
        pdme.close()


def test_multiprocess_executor_matches_in_process_oracle(workload, oracle_json, n_shards):
    reports, report_ids = workload
    snap = parallel_shard_ingest(reports, report_ids, n_shards=n_shards)
    assert canonical_dumps(snap) == oracle_json


def test_executive_fused_model_matches_router(workload, oracle_json):
    """The single-executive PDME and the sharded router expose the same
    fused-model snapshot shape with the same canonical bytes."""
    from repro.oosm.model import ShipModel
    from repro.pdme import PdmeExecutive

    reports, _ = workload
    model = ShipModel()
    for m in sorted({r.sensed_object_id for r in reports}):
        model.create("rotating-machine", id=m, name=m)
    pdme = PdmeExecutive(model)
    pdme.submit_batch(list(reports))
    as_of = max(r.timestamp for r in reports)
    assert canonical_dumps(pdme.fused_model(as_of=as_of)) == oracle_json


@pytest.mark.parametrize("plant", ["chiller", "turbine"])
def test_scorecards_match_golden_masters_at_any_shard_count(plant, n_shards):
    from repro.validation.scenarios import get_scenario, run_scenario_suite

    spec = get_scenario(plant, quick=True)
    card = run_scenario_suite(spec, seed=0, n_resamples=500, shards=n_shards)
    golden = (GOLDEN_DIR / f"score_{plant}.json").read_text(encoding="utf-8")
    assert card.canonical_json() == golden, (
        f"{plant} scorecard at {n_shards} shard(s) drifted from the "
        f"committed master — sharding must not perturb scoring"
    )
