"""OOSM: object model, events and persistence (§4).

Announcement rates with KF subscribed, event-notification fan-out, and
the relational save/load round trip with fidelity checks.
"""

from benchmarks._util import mean_seconds

import numpy as np

from repro.fusion import KnowledgeFusionEngine
from repro.fusion.groups import default_chiller_groups
from repro.oosm import PropertyChanged, ReportPosted, build_chilled_water_ship, load_model, save_model
from repro.protocol import FailurePredictionReport



def _report(motor, i):
    return FailurePredictionReport(
        knowledge_source_id="ks:dli",
        sensed_object_id=motor,
        machine_condition_id="mc:motor-imbalance",
        severity=0.5,
        belief=0.1,
        timestamp=float(i),
    )


def test_report_posting_rate_with_kf_subscribed(benchmark):
    """§5.1 steps 1-3 as a loop: post -> event -> fuse."""
    model, ship, units = build_chilled_water_ship(n_chillers=1)
    engine = KnowledgeFusionEngine(default_chiller_groups())
    model.bus.subscribe(ReportPosted, lambda ev: engine.ingest(ev.report))
    motor = units[0].motor
    counter = {"i": 0}

    def post_one():
        counter["i"] += 1
        model.post_report(_report(motor, counter["i"]))

    benchmark(post_one)
    benchmark.extra_info["posts_per_second"] = f"{1.0 / mean_seconds(benchmark):,.0f}"
    assert engine.stats.ingested == counter["i"]


def test_property_change_notification_fanout(benchmark):
    """Event delivery to many subscribers without polling (§4.5)."""
    model, ship, units = build_chilled_water_ship(n_chillers=1)
    hits = [0] * 16
    for i in range(16):
        model.bus.subscribe(PropertyChanged, lambda ev, i=i: hits.__setitem__(i, hits[i] + 1))
    motor = units[0].motor
    counter = {"v": 0}

    def change():
        counter["v"] += 1
        model.set_property(motor, "bearing_temp_c", counter["v"])

    benchmark(change)
    assert all(h > 0 for h in hits)
    benchmark.extra_info["subscribers"] = 16


def test_persistence_roundtrip(benchmark, tmp_path):
    """Save + reload the ship model's structure; verify fidelity."""
    model, ship, units = build_chilled_water_ship(n_chillers=2)
    path = tmp_path / "oosm.sqlite"

    def roundtrip():
        save_model(model, path)
        return load_model(path)

    loaded = benchmark.pedantic(roundtrip, rounds=5, iterations=1)
    assert len(loaded) == len(model)
    assert loaded.related(units[0].motor, "part-of") == model.related(
        units[0].motor, "part-of"
    )
    benchmark.extra_info["entities"] = len(model)


def test_graph_query_rates(benchmark):
    """Part-of closure + proximity queries at interactive rates."""
    from repro.oosm import parts_closure, proximate_entities

    model, ship, units = build_chilled_water_ship(n_chillers=4)

    def queries():
        parts_closure(model, ship.id)
        for u in units:
            proximate_entities(model, u.motor, hops=2)

    benchmark(queries)
    benchmark.extra_info["entities"] = len(model)
