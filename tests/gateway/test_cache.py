"""Versioned-cache semantics: hits, LRU eviction, one slot per query
shape, version-driven invalidation through watermarks and model
versions."""

from __future__ import annotations

from repro.gateway.cache import MAX_ENTRIES, VersionedCache
from repro.obs.registry import MetricsRegistry


def test_get_put_and_counters():
    cache = VersionedCache(metrics=MetricsRegistry())
    assert cache.get("a", 1) is None
    cache.put("a", 1, "payload")
    assert cache.get("a", 1) == "payload"
    assert cache.hits == 1
    assert cache.misses == 1
    assert cache.get("a", 2) is None  # another version never hits
    assert cache.misses == 2


def test_newer_build_replaces_its_slot():
    cache = VersionedCache(metrics=MetricsRegistry())
    cache.put(("health_json", "obj:m0"), (10.0, 1), "old")
    cache.put(("health_json", "obj:m0"), (11.0, 2), "new")
    assert len(cache) == 1
    assert cache.get(("health_json", "obj:m0"), (10.0, 1)) is None
    assert cache.get(("health_json", "obj:m0"), (11.0, 2)) == "new"


def test_lru_evicts_oldest_first():
    registry = MetricsRegistry()
    cache = VersionedCache(metrics=registry)
    cache.put("a", 0, 1)
    cache.put("b", 0, 2)
    for k in range(MAX_ENTRIES - 2):
        cache.put(k, 0, k)
    assert len(cache) == MAX_ENTRIES
    assert cache.get("a", 0) == 1  # refreshes recency: b is now LRU
    cache.put("c", 0, 3)
    assert cache.get("b", 0) is None
    assert cache.get("a", 0) == 1
    assert cache.get("c", 0) == 3
    assert len(cache) == MAX_ENTRIES
    assert registry.snapshot()["counters"]["gateway.cache.evictions"] == 1


def test_put_returns_value():
    cache = VersionedCache(metrics=MetricsRegistry())
    assert cache.put("k", 0, [1, 2]) == [1, 2]
    assert len(cache) == 1


def test_watermark_invalidates_fused_responses(fleet, gateway):
    """Ingest bumps the watermark; the next query misses and refuses
    stale bytes — invalidation with no explicit purge anywhere."""
    model, pdme, reports, _ = fleet
    before = gateway.fleet_health_json()
    assert gateway.fleet_health_json() == before  # steady state: hit

    extra = reports[0].__class__(
        knowledge_source_id="ks:new",
        sensed_object_id=reports[0].sensed_object_id,
        machine_condition_id="mc:oil-contamination",
        severity=0.95,
        belief=0.9,
        timestamp=max(r.timestamp for r in reports) + 60.0,
        dc_id="dc:new",
    )
    pdme.submit_batch([extra], ["dc:new#1"])
    after = gateway.fleet_health_json()
    assert after != before
    assert after == gateway.fleet_health_json(use_cache=False)


def test_model_version_invalidates_entity_responses(fleet, gateway):
    model, pdme, reports, _ = fleet
    first = sorted({r.sensed_object_id for r in reports})[0]
    before = gateway.managed_object_json(first)
    model.set_property(first, "location", "engine room 2")
    after = gateway.managed_object_json(first)
    assert after != before
    assert "engine room 2" in after


def test_cached_bytes_identical_to_uncached_oracle(gateway):
    oracle = gateway.fleet_health_json(use_cache=False)
    assert gateway.fleet_health_json() == oracle
    assert gateway.fleet_health_json() == oracle


def _read_every_shape(gateway, objects):
    gateway.fleet_health_json()
    for oid in objects:
        gateway.health_json(oid)
        gateway.managed_object_json(oid)
    gateway.alarms_json(0.3)
    gateway.managed_objects()


def test_slots_hold_only_current_versions(fleet, gateway):
    """After each write and a read of each shape, no slot holds an
    older watermark or model version; repeat reads still hit."""
    model, pdme, reports, ids = fleet
    objects = sorted({r.sensed_object_id for r in reports})[:3]
    for step, report in enumerate(reports[:4]):
        pdme.submit_batch([report], [f"{ids[0]}-again-{step}"])
        model.set_property(objects[0], "location", f"bay {step}")
        _read_every_shape(gateway, objects)
        slots = gateway.cache._entries
        # Fleet document, alarms, listing; health and the entity
        # document per object: one slot per shape.
        assert len(slots) == 3 + 2 * len(objects)
        for shape, (version, _) in slots.items():
            name = shape if isinstance(shape, str) else shape[0]
            if name.startswith("managed_"):
                assert version == model.version, shape
                continue
            assert version[1] == pdme.intake_watermark, shape
            if name.startswith("health"):
                assert version[2] == model.version, shape
        hits, misses = gateway.cache.hits, gateway.cache.misses
        _read_every_shape(gateway, objects)
        assert gateway.cache.misses == misses
        assert gateway.cache.hits > hits
