"""Property tests certifying the incremental hot path against oracles.

The ISSUE-5 fusion rewrite keeps two independent implementations of
Dempster's rule: the frozenset :class:`MassFunction` (readable, used by
``full_recompute``) and the bitmask :class:`BitMass` incremental
combiner the live engine runs on.  Hypothesis drives arbitrary report
streams — beliefs, conditions, orderings — through both and pins them
together to 1e-9 (cross-ordering float drift is real; bit-exactness is
only promised for *identical* orderings, which the golden tests cover).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fusion.dempster_shafer import (
    BitMass,
    bit_frame,
    combine_incremental,
)
from repro.fusion.diagnostic import DiagnosticFusion
from repro.fusion.groups import default_chiller_groups
from repro.protocol.report import FailurePredictionReport

_GROUPS = default_chiller_groups()
_ELECTRICAL = _GROUPS.get("electrical")
_CONDITIONS = sorted(_ELECTRICAL.conditions)

# Beliefs bounded away from 1.0 so combining many pieces of conflicting
# evidence cannot reach total conflict (K -> 1 raises, by design).
_beliefs = st.floats(min_value=0.0, max_value=0.9)
_streams = st.lists(
    st.tuples(st.sampled_from(_CONDITIONS), _beliefs), min_size=1, max_size=12
)


@settings(max_examples=60, deadline=None)
@given(_streams)
def test_incremental_bitmask_matches_full_recompute(stream):
    """Engine-side check: ingest N reports incrementally, then replay
    the retained history through the MassFunction oracle."""
    fusion = DiagnosticFusion(_GROUPS)

    class _R:
        def __init__(self, cond, belief):
            self.knowledge_source_id = "ks:prop"
            self.sensed_object_id = "obj:prop"
            self.machine_condition_id = cond
            self.belief = belief
            self.severity = 0.5
            self.timestamp = 0.0

    for cond, belief in stream:
        fusion.ingest(_R(cond, belief))
    fast = fusion.state("obj:prop", "electrical")
    oracle = fusion.full_recompute("obj:prop", "electrical")
    for c in _CONDITIONS:
        assert fast.beliefs[c] == pytest.approx(oracle.beliefs[c], abs=1e-9)
        assert fast.plausibilities[c] == pytest.approx(
            oracle.plausibilities[c], abs=1e-9
        )
    assert fast.unknown == pytest.approx(oracle.unknown, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(_streams)
def test_combine_incremental_order_invariant_beliefs(stream):
    """Dempster's rule is commutative/associative for exact masses: any
    ordering of the same evidence set fuses to the same beliefs."""
    frame = bit_frame(_ELECTRICAL.frame)

    def fuse(items):
        acc = None
        for cond, belief in items:
            acc = combine_incremental(
                acc, BitMass.simple_support(frame, cond, belief)
            )
        return acc

    forward = fuse(stream)
    backward = fuse(list(reversed(stream)))
    for c in _CONDITIONS:
        assert forward.belief(c) == pytest.approx(backward.belief(c), abs=1e-9)
    assert forward.unknown() == pytest.approx(backward.unknown(), abs=1e-9)


# Any chiller condition plus one no group claims (an implicit ``auto:``
# group), on a few objects, from a few sources of different trust.
_ANY_CONDITION = st.sampled_from(
    sorted(c for g in _GROUPS.groups() for c in g.conditions) + ["mc:novel"]
)
_report_streams = st.lists(
    st.tuples(
        st.sampled_from(["obj:a", "obj:b", "obj:c"]),
        _ANY_CONDITION,
        st.sampled_from(["ks:dli", "ks:wnn", "ks:fuzzy"]),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.01, max_value=0.9),
    ),
    min_size=1,
    max_size=30,
)


def _diagnosis_fields(d):
    return (
        d.sensed_object_id,
        d.group_name,
        dict(d.beliefs),
        dict(d.plausibilities),
        d.unknown,
        d.severity,
        d.report_count,
        d.conflict,
    )


@settings(max_examples=60, deadline=None)
@given(_report_streams)
def test_diagnosis_read_late_equals_read_at_ingest(stream):
    """The diagnosis :meth:`DiagnosticFusion.ingest` returns is pinned
    at its own ingest: reading it after the whole stream has been fused
    gives, field for field, what reading it right after its ingest gave."""

    def fusion():
        return DiagnosticFusion(
            _GROUPS, believability={"ks:dli": 1.0, "ks:wnn": 0.7, "ks:fuzzy": 0.4}
        )

    reports = [
        FailurePredictionReport(
            knowledge_source_id=ks,
            sensed_object_id=obj,
            machine_condition_id=cond,
            severity=severity,
            belief=belief,
            timestamp=float(i),
        )
        for i, (obj, cond, ks, severity, belief) in enumerate(stream)
    ]
    early_fusion, late_fusion = fusion(), fusion()
    early = [_diagnosis_fields(early_fusion.ingest(r)) for r in reports]
    late = [late_fusion.ingest(r) for r in reports]
    assert [_diagnosis_fields(d) for d in late] == early
