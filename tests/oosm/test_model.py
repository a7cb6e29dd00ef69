import pytest

from repro.common.errors import OosmError
from repro.oosm import (
    EntityCreated,
    EntityDeleted,
    PropertyChanged,
    RelationshipAdded,
    RelationshipRemoved,
    ReportPosted,
    ShipModel,
)
from repro.protocol import FailurePredictionReport


@pytest.fixture
def model():
    return ShipModel()


def make_report(obj_id, cond="mc:motor-imbalance"):
    return FailurePredictionReport(
        knowledge_source_id="ks:dli",
        sensed_object_id=obj_id,
        machine_condition_id=cond,
        severity=0.5,
        belief=0.6,
        timestamp=1.0,
    )


# -- instances -----------------------------------------------------------

def test_create_allocates_typed_id(model):
    e = model.create("pump", name="P1")
    assert e.id.startswith("pump:")
    assert e.type_name == "pump"
    assert model.get(e.id) is e


def test_create_unknown_type_rejected(model):
    with pytest.raises(OosmError):
        model.create("warp-core")


def test_create_explicit_id(model):
    e = model.create("pump", id="pump:custom")
    assert model.get("pump:custom") is e


def test_create_duplicate_id_rejected(model):
    model.create("pump", id="pump:x")
    with pytest.raises(OosmError):
        model.create("pump", id="pump:x")


def test_get_missing_raises(model):
    with pytest.raises(OosmError):
        model.get("pump:none")


def test_len_and_contains(model):
    e = model.create("pump")
    assert len(model) == 1
    assert e.id in model


def test_delete_removes_entity_and_edges(model):
    a = model.create("pump")
    b = model.create("chiller")
    model.relate(a.id, "part-of", b.id)
    model.delete(a.id)
    assert a.id not in model
    assert model.related_in(b.id, "part-of") == frozenset()


def test_entities_filter_by_type_and_kind(model):
    model.create("pump")
    model.create("induction-motor")
    model.create("deck")
    assert len(list(model.entities(type_name="pump"))) == 1
    assert len(list(model.entities(kind_of="rotating-machine"))) == 2


def test_find_by_name(model):
    model.create("pump", name="P1")
    assert model.find("P1").get("name") == "P1"


def test_find_missing_or_ambiguous(model):
    with pytest.raises(OosmError):
        model.find("nope")
    model.create("pump", name="dup")
    model.create("pump", name="dup")
    with pytest.raises(OosmError):
        model.find("dup")


# -- properties -----------------------------------------------------------

def test_set_get_property(model):
    e = model.create("pump")
    model.set_property(e.id, "capacity", 42)
    assert model.get_property(e.id, "capacity") == 42


def test_property_change_fires_event(model):
    e = model.create("pump", capacity=1)
    events = []
    model.bus.subscribe(PropertyChanged, events.append)
    model.set_property(e.id, "capacity", 2)
    assert events == [PropertyChanged(e.id, "capacity", 1, 2)]


def test_property_same_value_no_event(model):
    e = model.create("pump", capacity=1)
    events = []
    model.bus.subscribe(PropertyChanged, events.append)
    model.set_property(e.id, "capacity", 1)
    assert events == []


# -- relationships ----------------------------------------------------------

def test_relate_and_query(model):
    a, b = model.create("pump"), model.create("chiller")
    model.relate(a.id, "part-of", b.id)
    assert model.related(a.id, "part-of") == {b.id}
    assert model.related_in(b.id, "part-of") == {a.id}


def test_relate_unknown_kind_rejected(model):
    a, b = model.create("pump"), model.create("chiller")
    with pytest.raises(OosmError):
        model.relate(a.id, "likes", b.id)


def test_relate_self_rejected(model):
    a = model.create("pump")
    with pytest.raises(OosmError):
        model.relate(a.id, "part-of", a.id)


def test_part_of_single_whole(model):
    a = model.create("pump")
    b, c = model.create("chiller"), model.create("chiller")
    model.relate(a.id, "part-of", b.id)
    with pytest.raises(OosmError):
        model.relate(a.id, "part-of", c.id)


def test_part_of_cycle_rejected(model):
    a, b, c = (model.create("machine") for _ in range(3))
    model.relate(a.id, "part-of", b.id)
    model.relate(b.id, "part-of", c.id)
    with pytest.raises(OosmError):
        model.relate(c.id, "part-of", a.id)


def test_relate_idempotent(model):
    a, b = model.create("pump"), model.create("chiller")
    events = []
    model.bus.subscribe(RelationshipAdded, events.append)
    model.relate(a.id, "part-of", b.id)
    model.relate(a.id, "part-of", b.id)
    assert len(events) == 1


def test_proximity_is_symmetric(model):
    a, b = model.create("pump"), model.create("induction-motor")
    model.relate(a.id, "proximate-to", b.id)
    assert model.related(b.id, "proximate-to") == {a.id}
    model.unrelate(b.id, "proximate-to", a.id)
    assert model.related(a.id, "proximate-to") == frozenset()


def test_unrelate_fires_event(model):
    a, b = model.create("pump"), model.create("chiller")
    model.relate(a.id, "refers-to", b.id)
    events = []
    model.bus.subscribe(RelationshipRemoved, events.append)
    model.unrelate(a.id, "refers-to", b.id)
    assert events == [RelationshipRemoved("refers-to", a.id, b.id)]


def test_unrelate_absent_is_noop(model):
    a, b = model.create("pump"), model.create("chiller")
    model.unrelate(a.id, "refers-to", b.id)  # no exception


def test_relationships_iterates_each_edge_once(model):
    a, b = model.create("pump"), model.create("induction-motor")
    model.relate(a.id, "proximate-to", b.id)
    model.relate(a.id, "flow", b.id)
    rels = list(model.relationships())
    assert len(rels) == 2
    assert {r.kind for r in rels} == {"proximate-to", "flow"}


def test_parts_closure(model):
    ship = model.create("ship")
    deck = model.create("deck")
    pump = model.create("pump")
    model.relate(deck.id, "part-of", ship.id)
    model.relate(pump.id, "part-of", deck.id)
    assert model.parts_closure_ids(ship.id) == {deck.id, pump.id}
    assert model.parts_closure_ids(pump.id, up=True) == {deck.id, ship.id}


# -- lifecycle events ---------------------------------------------------------

def test_create_delete_events(model):
    created, deleted = [], []
    model.bus.subscribe(EntityCreated, created.append)
    model.bus.subscribe(EntityDeleted, deleted.append)
    e = model.create("pump")
    model.delete(e.id)
    assert created == [EntityCreated(e.id, "pump")]
    assert deleted == [EntityDeleted(e.id, "pump")]


# -- report announcements --------------------------------------------------------

def test_post_report_stores_and_notifies(model):
    """Posting announces the report and retains nothing: the PDME's
    report log is the repository."""
    e = model.create("induction-motor")
    seen = []
    model.bus.subscribe(ReportPosted, seen.append)
    r = make_report(e.id)
    v = model.version
    model.post_report(r)
    assert [event.report for event in seen] == [r]
    assert model.version == v


def test_post_report_unknown_object_rejected(model):
    with pytest.raises(OosmError):
        model.post_report(make_report("obj:ghost"))


def test_reports_for_filters_by_object(model):
    """Per-object history is read from the PDME's log, which the model's
    announcements follow."""
    from repro.pdme.shard import ShardedPdme

    a, b = model.create("pump"), model.create("pump")
    pdme = ShardedPdme(1, model=model)
    pdme.submit_batch([make_report(a.id), make_report(b.id)])
    assert pdme.reports_for(a.id) == [make_report(a.id)]
    assert pdme.report_count == 2


def test_materialization_off_by_default():
    model = ShipModel()
    machine = model.create("induction-motor")
    model.post_report(make_report(machine.id))
    assert list(model.entities(type_name="failure-prediction-report")) == []

