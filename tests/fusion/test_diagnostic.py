import pytest

from repro.common.errors import FusionError
from repro.fusion import DiagnosticFusion, GroupRegistry
from repro.fusion.diagnostic import discounted_support
from repro.fusion.groups import LogicalGroup, default_chiller_groups
from repro.protocol import FailurePredictionReport


def report(condition, belief, obj="obj:chiller1", ks="ks:dli", sev=0.5, t=0.0):
    return FailurePredictionReport(
        knowledge_source_id=ks,
        sensed_object_id=obj,
        machine_condition_id=condition,
        severity=sev,
        belief=belief,
        timestamp=t,
    )


@pytest.fixture
def fusion():
    return DiagnosticFusion(default_chiller_groups())


def test_single_report_sets_belief(fusion):
    state = fusion.ingest(report("mc:motor-imbalance", 0.6))
    assert state.beliefs["mc:motor-imbalance"] == pytest.approx(0.6)
    assert state.group_name == "rotating-mechanical"
    assert state.report_count == 1


def test_reinforcing_reports_raise_belief(fusion):
    fusion.ingest(report("mc:motor-imbalance", 0.6, ks="ks:dli"))
    state = fusion.ingest(report("mc:motor-imbalance", 0.6, ks="ks:wnn"))
    assert state.beliefs["mc:motor-imbalance"] == pytest.approx(1 - 0.4 * 0.4)


def test_conflicting_reports_split_belief(fusion):
    fusion.ingest(report("mc:motor-imbalance", 0.7))
    state = fusion.ingest(report("mc:shaft-misalignment", 0.7))
    b1 = state.beliefs["mc:motor-imbalance"]
    b2 = state.beliefs["mc:shaft-misalignment"]
    assert b1 == pytest.approx(b2)
    assert b1 < 0.7  # conflict normalization reduces both


def test_unknown_mass_tracked(fusion):
    state = fusion.ingest(report("mc:motor-imbalance", 0.6))
    assert state.unknown == pytest.approx(0.4)


def test_groups_are_independent(fusion):
    """Concurrent failures in different groups keep full belief (§5.3)."""
    s1 = fusion.ingest(report("mc:motor-rotor-bar", 0.9))
    s2 = fusion.ingest(report("mc:oil-contamination", 0.9))
    assert s1.group_name == "electrical"
    assert s2.group_name == "lubricant"
    assert s1.beliefs["mc:motor-rotor-bar"] == pytest.approx(0.9)
    assert s2.beliefs["mc:oil-contamination"] == pytest.approx(0.9)


def test_states_for_object_lists_touched_groups(fusion):
    fusion.ingest(report("mc:motor-rotor-bar", 0.5))
    fusion.ingest(report("mc:oil-contamination", 0.5))
    states = fusion.states_for_object("obj:chiller1")
    assert {s.group_name for s in states} == {"electrical", "lubricant"}


def test_objects_are_independent(fusion):
    fusion.ingest(report("mc:motor-imbalance", 0.8, obj="obj:a"))
    state_b = fusion.state("obj:b", "rotating-mechanical")
    assert state_b.report_count == 0
    assert all(v == 0.0 for v in state_b.beliefs.values())


def test_severity_is_max_over_reports(fusion):
    fusion.ingest(report("mc:motor-imbalance", 0.4, sev=0.3))
    state = fusion.ingest(report("mc:motor-imbalance", 0.4, sev=0.8))
    assert state.severity == pytest.approx(0.8)


def test_believability_discounts_source():
    fusion = DiagnosticFusion(default_chiller_groups(), believability={"ks:flaky": 0.5})
    state = fusion.ingest(report("mc:motor-imbalance", 0.8, ks="ks:flaky"))
    assert state.beliefs["mc:motor-imbalance"] == pytest.approx(0.4)


def test_unregistered_condition_uses_auto_group(fusion):
    state = fusion.ingest(report("mc:brand-new-failure", 0.7))
    assert state.group_name == "auto:mc:brand-new-failure"
    assert state.beliefs["mc:brand-new-failure"] == pytest.approx(0.7)
    # And it is queryable afterwards.
    again = fusion.state("obj:chiller1", "auto:mc:brand-new-failure")
    assert again.report_count == 1


def test_suspects_ranked_and_thresholded(fusion):
    fusion.ingest(report("mc:motor-rotor-bar", 0.9))
    fusion.ingest(report("mc:oil-contamination", 0.6))
    fusion.ingest(report("mc:gear-tooth-wear", 0.2))
    suspects = fusion.suspects(threshold=0.5)
    assert [c for _, c, _ in suspects] == ["mc:motor-rotor-bar", "mc:oil-contamination"]


def test_top_returns_strongest(fusion):
    fusion.ingest(report("mc:motor-imbalance", 0.3))
    state = fusion.ingest(report("mc:shaft-misalignment", 0.8))
    top = state.top()
    assert top is not None and top[0] == "mc:shaft-misalignment"


def test_top_none_when_no_evidence(fusion):
    assert fusion.state("obj:x", "electrical").top() is None


def test_reset_clears_pair(fusion):
    fusion.ingest(report("mc:motor-imbalance", 0.9))
    fusion.reset("obj:chiller1", "rotating-mechanical")
    assert fusion.state("obj:chiller1", "rotating-mechanical").report_count == 0


def test_discounted_support_validates():
    g = LogicalGroup("g", frozenset({"mc:a"}))
    with pytest.raises(FusionError):
        discounted_support(g, "mc:zzz", 0.5)
    with pytest.raises(FusionError):
        discounted_support(g, "mc:a", 0.5, believability=2.0)


def test_multiple_failures_within_group_both_suspect(fusion):
    """§5.3: grouping 'does not preclude multiple failures within a
    group to all be suspect concurrently'."""
    for _ in range(3):
        fusion.ingest(report("mc:motor-imbalance", 0.5))
        fusion.ingest(report("mc:bearing-wear", 0.5))
    state = fusion.state("obj:chiller1", "rotating-mechanical")
    assert state.beliefs["mc:motor-imbalance"] > 0.25
    assert state.beliefs["mc:bearing-wear"] > 0.25


def test_conflict_measure_distinguishes_reinforcing_from_conflicting(fusion):
    """§3.2's 'some conflicting and some reinforcing', quantified: the
    D-S conflict K of the latest combination."""
    s1 = fusion.ingest(report("mc:motor-imbalance", 0.8, ks="ks:dli"))
    assert s1.conflict == 0.0          # first report: nothing to clash with
    s2 = fusion.ingest(report("mc:motor-imbalance", 0.8, ks="ks:wnn"))
    assert s2.conflict == pytest.approx(0.0)   # pure reinforcement
    s3 = fusion.ingest(report("mc:shaft-misalignment", 0.8, ks="ks:fuzzy"))
    assert s3.conflict > 0.5           # clashes with the fused imbalance mass
    fusion.reset("obj:chiller1", "rotating-mechanical")
    s4 = fusion.ingest(report("mc:motor-imbalance", 0.5))
    assert s4.conflict == 0.0          # reset cleared the memory
