"""Shared gateway fixtures: a small fused fleet behind a gateway."""

from __future__ import annotations

import pytest

from repro.gateway import gateway_for_sharded
from repro.obs.registry import MetricsRegistry
from repro.oosm.model import ShipModel
from repro.pdme.demo import demo_reports
from repro.pdme.shard import ShardedPdme


@pytest.fixture(scope="module")
def workload():
    return demo_reports(quick=True)


@pytest.fixture
def fleet(tmp_path, workload):
    """(model, pdme, reports, ids) with the full stream already fused;
    the router announces what it writes on the model's bus."""
    reports, ids = workload
    model = ShipModel()
    for oid in sorted({r.sensed_object_id for r in reports}):
        model.create("rotating-machine", id=oid, name=oid)
    pdme = ShardedPdme(
        2,
        store_paths=[tmp_path / "shard-0.sqlite", tmp_path / "shard-1.sqlite"],
        model=model,
    )
    pdme.submit_batch(reports, ids)
    yield model, pdme, reports, ids
    pdme.close()


@pytest.fixture
def gateway(fleet):
    model, pdme, _, _ = fleet
    return gateway_for_sharded(model, pdme, metrics=MetricsRegistry())
