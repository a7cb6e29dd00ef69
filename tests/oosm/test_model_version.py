"""Model-version tracking and the version-keyed ``to_graph`` cache."""

from __future__ import annotations

from repro.oosm.model import ShipModel
from repro.oosm.query import to_graph
from repro.protocol.report import FailurePredictionReport


def _report(oid: str) -> FailurePredictionReport:
    return FailurePredictionReport(
        knowledge_source_id="ks:v",
        sensed_object_id=oid,
        machine_condition_id="mc:motor-imbalance",
        severity=0.4,
        belief=0.3,
        timestamp=1.0,
        dc_id="dc:v",
    )


def _build():
    model = ShipModel()
    a = model.create("induction-motor", name="M1").id
    b = model.create("centrifugal-compressor", name="C1").id
    model.relate(a, "flow", b)
    return model, a, b


def test_every_mutation_bumps_version():
    model, a, b = _build()
    v = model.version
    model.set_property(a, "power", 11.0)
    assert model.version == v + 1
    model.relate(a, "proximate-to", b)
    assert model.version == v + 2
    # Announcing reports changes no structure, so no version.
    model.post_report(_report(a))
    model.post_reports([_report(a), _report(b)])
    assert model.version == v + 2
    model.unrelate(a, "proximate-to", b)
    assert model.version == v + 3
    # delete() detaches surviving edges via unrelate, so it bumps at
    # least once (exact count depends on the entity's degree).
    model.delete(b)
    assert model.version > v + 3


def test_noop_mutations_do_not_bump():
    model, a, b = _build()
    v = model.version
    model.set_property(a, "power", 11.0)
    model.relate(a, "flow", b)  # edge already exists
    model.set_property(a, "power", 11.0)  # same value
    model.unrelate(b, "flow", a)  # edge never existed
    assert model.version == v + 1


def test_to_graph_cached_until_version_changes():
    model, a, b = _build()
    g1 = to_graph(model)
    assert to_graph(model) is g1  # same version: the identical object
    assert to_graph(model, kinds=("flow",)) is not g1  # distinct key
    model.set_property(a, "power", 22.0)
    g2 = to_graph(model)
    assert g2 is not g1  # version bumped: rebuilt
    assert g2.nodes[a]["power"] == 22.0


def test_cached_graph_reflects_topology_changes():
    model, a, b = _build()
    g1 = to_graph(model)
    assert g1.has_edge(a, b)
    model.unrelate(a, "flow", b)
    assert not to_graph(model).has_edge(a, b)
