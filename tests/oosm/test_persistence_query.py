import pytest

from repro.common.errors import OosmError
from repro.oosm import (
    ShipModel,
    build_chilled_water_ship,
    downstream_of,
    load_model,
    parts_closure,
    proximate_entities,
    save_model,
    system_of,
    to_graph,
)
from repro.oosm.query import flow_path, upstream_of


@pytest.fixture
def ship():
    return build_chilled_water_ship(n_chillers=2)


# -- shipyard -----------------------------------------------------------

def test_ship_builds_expected_structure(ship):
    model, ship_entity, units = ship
    assert len(units) == 2
    assert model.find("A/C Compressor Motor 1").type_name == "induction-motor"
    u = units[0]
    assert model.related(u.motor, "part-of") == {u.chiller}
    assert len(u.sensors) >= 8


def test_ship_parts_closure_rolls_up(ship):
    model, ship_entity, units = ship
    closure = parts_closure(model, ship_entity.id)
    for u in units:
        assert u.motor in closure
        assert u.chiller in closure


def test_system_of_walks_to_ship(ship):
    model, ship_entity, units = ship
    assert system_of(model, units[0].motor) == ship_entity.id
    assert system_of(model, ship_entity.id) == ship_entity.id


def test_flow_topology(ship):
    model, _, units = ship
    u = units[0]
    down = downstream_of(model, u.motor)
    assert u.compressor in down and u.evaporator in down
    up = upstream_of(model, u.pump)
    assert u.evaporator in up
    path = flow_path(model, u.motor, u.evaporator)
    assert path[0] == u.motor and path[-1] == u.evaporator


def test_flow_path_none_returns_empty(ship):
    model, ship_entity, units = ship
    assert flow_path(model, units[0].pump, units[0].motor) == []


def test_proximity_neighbourhood(ship):
    model, _, units = ship
    u = units[0]
    hop1 = proximate_entities(model, u.motor, hops=1)
    assert u.gearset in hop1 and u.pump in hop1
    hop2 = proximate_entities(model, u.motor, hops=2)
    assert u.compressor in hop2
    assert proximate_entities(model, u.motor, hops=0) == set()


def test_to_graph_node_and_edge_counts(ship):
    model, _, _ = ship
    g = to_graph(model)
    assert g.number_of_nodes() == len(model)
    # proximity edges appear in both directions in the export
    kinds = {d["kind"] for _, _, d in g.edges(data=True)}
    assert {"part-of", "flow", "proximate-to", "monitors"} <= kinds


# -- persistence ---------------------------------------------------------

def test_save_load_roundtrip(tmp_path, ship):
    model, ship_entity, units = ship
    u = units[0]
    path = tmp_path / "oosm.sqlite"
    save_model(model, path)
    loaded = load_model(path)

    assert len(loaded) == len(model)
    assert loaded.get(u.motor).get("shaft_rpm") == model.get(u.motor).get("shaft_rpm")
    assert loaded.related(u.motor, "part-of") == {u.chiller}
    assert loaded.related(u.motor, "proximate-to") == model.related(u.motor, "proximate-to")


def test_save_load_preserves_types(tmp_path):
    model = ShipModel()
    model.create("accelerometer", name="a1")
    path = tmp_path / "m.sqlite"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.types.is_kind_of("accelerometer", "sensor")


def test_save_twice_replaces(tmp_path):
    model = ShipModel()
    model.create("pump", name="p1")
    path = tmp_path / "m.sqlite"
    save_model(model, path)
    model.create("pump", name="p2")
    save_model(model, path)
    loaded = load_model(path)
    assert len(loaded) == 2


def test_load_missing_file_raises(tmp_path):
    with pytest.raises(OosmError):
        load_model(tmp_path / "absent.sqlite")


def test_unpersistable_property_raises(tmp_path):
    model = ShipModel()
    e = model.create("pump")
    model.set_property(e.id, "weird", object())
    with pytest.raises(OosmError):
        save_model(model, tmp_path / "m.sqlite")


def test_non_finite_property_is_not_saved(tmp_path):
    model = ShipModel()
    e = model.create("pump")
    model.set_property(e.id, "capacity", float("nan"))
    with pytest.raises(OosmError, match="capacity"):
        save_model(model, tmp_path / "m.sqlite")


@pytest.mark.parametrize(
    "stored", ["NaN", "-Infinity", "[1.0, Infinity]", "1e400", "[1.0, -1e400]", "{", ""]
)
def test_load_rejects_unreadable_property_rows(tmp_path, stored):
    # A property row edited on disk to hold a non-finite number or
    # broken JSON is refused with the table named, not loaded as NaN
    # or raised as a bare JSONDecodeError.
    import sqlite3

    model = ShipModel()
    e = model.create("pump", capacity=3.5)
    path = tmp_path / "m.sqlite"
    save_model(model, path)
    conn = sqlite3.connect(str(path))
    with conn:
        conn.execute(
            "UPDATE properties SET value = ? WHERE entity_id = ? AND name = ?",
            (stored, e.id, "capacity"),
        )
    conn.close()
    with pytest.raises(OosmError, match=r"table properties: value of 'capacity'"):
        load_model(path)
