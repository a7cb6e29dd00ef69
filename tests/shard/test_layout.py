"""Consistent-hash layout: stable, total, balanced, and minimal.

The routing invariants the whole shard design leans on:

* every key maps to exactly one shard, as a pure function of
  (key, layout) — no process state, no hash salting;
* growing N -> N+1 shards moves a key only *to* the new shard, never
  between surviving shards (the exact form of "minimal migration");
* the moved fraction stays near the ideal 1/(N+1).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import MprosError
from repro.pdme.shard import ShardedPdme, ShardLayout

keys = st.text(min_size=1, max_size=40)


@given(keys, st.integers(min_value=1, max_value=8))
@settings(max_examples=200, deadline=None)
def test_every_key_maps_to_exactly_one_valid_shard(key, n):
    layout = ShardLayout(n)
    shard = layout.shard_of(key)
    assert 0 <= shard < n
    # Stable: a freshly built identical layout agrees (no per-process
    # hash salt, no hidden state).
    assert ShardLayout(n).shard_of(key) == shard
    # Deterministic per call.
    assert layout.shard_of(key) == shard


@given(st.lists(keys, max_size=30), st.integers(min_value=1, max_value=8))
@settings(max_examples=100, deadline=None)
def test_memoized_routing_equals_a_fresh_layout_and_holds_one_entry_per_key(batch, n):
    layout = ShardLayout(n)
    first = [layout.shard_of(k) for k in batch]
    again = [layout.shard_of(k) for k in reversed(batch)]
    assert first == [ShardLayout(n).shard_of(k) for k in batch]
    assert again == first[::-1]
    assert len(layout._memo) == len(set(batch))


def test_rebalance_routes_through_a_new_layout_with_its_own_memo():
    from repro.pdme.demo import demo_reports

    reports, ids = demo_reports(quick=True)
    pdme = ShardedPdme(2)
    pdme.submit_batch(reports, ids)
    old = pdme.layout
    objects = {r.sensed_object_id for r in reports}
    assert set(old._memo) == objects
    pdme.rebalance(3)
    assert pdme.layout is not old and pdme.layout.n_shards == 3
    assert set(pdme.layout._memo) == objects
    assert all(
        pdme.layout.shard_of(k) == ShardLayout(3).shard_of(k) for k in objects
    )
    pdme.close()


@given(keys, st.integers(min_value=1, max_value=7))
@settings(max_examples=200, deadline=None)
def test_growth_moves_keys_only_to_the_new_shard(key, n):
    before = ShardLayout(n).shard_of(key)
    after = ShardLayout(n + 1).shard_of(key)
    assert after == before or after == n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_remigrated_fraction_is_near_minimal(n):
    corpus = [f"obj:asset-{i}" for i in range(3000)]
    a, b = ShardLayout(n), ShardLayout(n + 1)
    moved = sum(1 for k in corpus if a.shard_of(k) != b.shard_of(k))
    fraction = moved / len(corpus)
    ideal = 1.0 / (n + 1)
    # Something must move (the new shard takes real load), and vnode
    # granularity keeps the total close to the consistent-hash ideal.
    assert 0 < fraction <= 2.0 * ideal


def test_balance_across_shards():
    corpus = [f"obj:asset-{i}" for i in range(4000)]
    for n in (2, 4, 8):
        counts = [0] * n
        for k in corpus:
            counts[ShardLayout(n).shard_of(k)] += 1
        assert min(counts) > 0
        assert max(counts) <= 2.0 * len(corpus) / n


def test_partition_preserves_order_and_covers_all(simple_reports=None):
    from repro.pdme.demo import demo_reports

    reports, _ = demo_reports(quick=True)
    layout = ShardLayout(3)
    per = layout.partition(reports)
    flat = sorted(i for idxs in per for i in idxs)
    assert flat == list(range(len(reports)))
    for shard, idxs in enumerate(per):
        assert idxs == sorted(idxs)  # arrival order preserved per shard
        for i in idxs:
            assert layout.shard_of(reports[i].sensed_object_id) == shard


def test_layout_rejects_bad_geometry():
    with pytest.raises(MprosError):
        ShardLayout(0)
    with pytest.raises(MprosError):
        ShardLayout(2, vnodes=0)
