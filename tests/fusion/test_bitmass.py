"""Unit tests for the bitmask D-S hot path (BitMass, combine_incremental).

The frozenset :class:`MassFunction` stays the readable reference; these
tests pin the bitmask implementation's own contract — deterministic bit
layout, converter round-trips, conflict bookkeeping, and combination
that never modifies its operands.
"""

import pytest

from repro.common.errors import FusionError
from repro.fusion.dempster_shafer import (
    BitMass,
    MassFunction,
    bit_frame,
    combine,
    combine_incremental,
    combine_incremental_many,
)

FRAME = frozenset({"a", "b", "c"})


def test_bit_frame_is_cached_and_deterministic():
    f1 = bit_frame(FRAME)
    f2 = bit_frame(frozenset({"c", "b", "a"}))
    assert f1 is f2                       # one frame object per frozenset
    assert f1.hypotheses == ("a", "b", "c")  # sorted layout
    assert f1.full == 0b111
    assert f1.mask(["a", "c"]) == f1.bit("a") | f1.bit("c")
    assert f1.unmask(f1.mask(["a", "c"])) == frozenset({"a", "c"})


def test_mask_rejects_empty_and_unknown():
    frame = bit_frame(FRAME)
    with pytest.raises(FusionError):
        frame.mask([])
    with pytest.raises(FusionError):
        frame.bit("zebra")


def test_simple_support_extremes():
    frame = bit_frame(FRAME)
    vacuous = BitMass.simple_support(frame, "a", 0.0)
    assert vacuous.unknown() == pytest.approx(1.0)
    certain = BitMass.simple_support(frame, "a", 1.0)
    assert certain.belief("a") == pytest.approx(1.0)
    with pytest.raises(FusionError):
        BitMass.simple_support(frame, "a", 1.5)


def test_mass_function_round_trip():
    mf = MassFunction(FRAME, {"a": 0.5, "b": 0.2})
    bm = BitMass.from_mass_function(mf)
    back = bm.to_mass_function()
    assert back == mf
    for h in FRAME:
        assert bm.belief(h) == pytest.approx(mf.belief(h))
        assert bm.plausibility(h) == pytest.approx(mf.plausibility(h))


def test_combine_incremental_matches_oracle_and_tracks_conflict():
    frame = bit_frame(FRAME)
    e1 = BitMass.simple_support(frame, "a", 0.6)
    e2 = BitMass.simple_support(frame, "b", 0.5)
    fused = combine_incremental(e1, e2)
    oracle = combine(e1.to_mass_function(), e2.to_mass_function())
    for h in FRAME:
        assert fused.belief(h) == pytest.approx(oracle.belief(h), abs=1e-12)
    # Disjoint singletons: K = 0.6 * 0.5.
    assert fused.conflict_k == pytest.approx(0.3)


def test_combine_incremental_none_prior_is_identity():
    frame = bit_frame(FRAME)
    e = BitMass.simple_support(frame, "a", 0.4)
    assert combine_incremental(None, e) is e


def test_combine_incremental_total_conflict_raises():
    frame = bit_frame(FRAME)
    e1 = BitMass.simple_support(frame, "a", 1.0)
    e2 = BitMass.simple_support(frame, "b", 1.0)
    with pytest.raises(FusionError):
        combine_incremental(e1, e2)


def test_combine_incremental_rejects_frame_mismatch():
    e1 = BitMass.simple_support(bit_frame(FRAME), "a", 0.5)
    e2 = BitMass.simple_support(bit_frame(frozenset({"x", "y"})), "x", 0.5)
    with pytest.raises(FusionError):
        combine_incremental(e1, e2)


def test_combine_incremental_leaves_operands_unchanged():
    """Fused diagnoses pin the mass they were built from, so combining
    must return a new state and leave both operands as they were."""
    frame = bit_frame(FRAME)
    e1 = BitMass.simple_support(frame, "a", 0.37)
    e2 = BitMass.simple_support(frame, "b", 0.41)
    before = (dict(e1.masses), e1.conflict_k, dict(e2.masses), e2.conflict_k)
    first = combine_incremental(e1, e2)
    assert first is not e1 and first is not e2
    assert (dict(e1.masses), e1.conflict_k, dict(e2.masses), e2.conflict_k) == before
    again = combine_incremental(
        BitMass.simple_support(frame, "a", 0.37),
        BitMass.simple_support(frame, "b", 0.41),
    )
    assert again.masses == first.masses


def test_combine_incremental_many_folds_in_order():
    frame = bit_frame(FRAME)
    parts = [
        BitMass.simple_support(frame, c, b)
        for c, b in [("a", 0.3), ("b", 0.4), ("a", 0.2)]
    ]
    folded = combine_incremental_many(parts)
    step = None
    for p in parts:
        step = combine_incremental(step, p)
    assert folded.masses == pytest.approx(step.masses)
