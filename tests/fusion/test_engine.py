import pytest

from repro.fusion import KnowledgeFusionEngine
from repro.fusion.groups import default_chiller_groups
from repro.protocol import FailurePredictionReport, PrognosticVector

GROUP = "rotating-mechanical"


def report(cond="mc:motor-imbalance", belief=0.6, pairs=(), t=0.0, obj="obj:m1",
           ks="ks:dli"):
    return FailurePredictionReport(
        knowledge_source_id=ks,
        sensed_object_id=obj,
        machine_condition_id=cond,
        severity=0.5,
        belief=belief,
        timestamp=t,
        prognostic=PrognosticVector.from_pairs(list(pairs)),
    )


@pytest.fixture
def engine():
    return KnowledgeFusionEngine(default_chiller_groups())


def test_diagnostic_only_report(engine):
    assert engine.ingest(report(belief=0.7)) is True
    assert engine.diagnostic.state("obj:m1", GROUP).report_count == 1
    assert engine.prognostic.keys() == []
    assert engine.stats.diagnostic_updates == 1
    assert engine.stats.prognostic_updates == 0


def test_prognostic_only_report(engine):
    assert engine.ingest(report(belief=0.0, pairs=[(100.0, 0.5)])) is True
    assert engine.diagnostic.keys() == []
    state = engine.prognostic.state("obj:m1", "mc:motor-imbalance", 0.0)
    assert state.report_count == 1
    assert state.vector.probability_at(100.0) == pytest.approx(0.5)
    assert engine.stats.prognostic_updates == 1


def test_combined_report_updates_both(engine):
    assert engine.ingest(report(belief=0.5, pairs=[(100.0, 0.5)])) is True
    assert engine.diagnostic.state("obj:m1", GROUP).beliefs[
        "mc:motor-imbalance"
    ] == pytest.approx(0.5)
    assert engine.prognostic.state(
        "obj:m1", "mc:motor-imbalance", 0.0
    ).report_count == 1


def test_empty_report_rejected_not_fatal(engine):
    """A report with neither belief nor prognosis is counted, skipped."""
    assert engine.ingest(report(belief=0.0)) is False
    assert engine.stats.rejected == 1
    assert engine.stats.ingested == 1
    assert engine.diagnostic.keys() == [] and engine.prognostic.keys() == []


def test_time_disordered_reports_handled(engine):
    """§5.1: inputs may be time-disordered; late-arriving stale
    prognostics are age-shifted against the newest time seen."""
    engine.ingest(report(belief=0.0, pairs=[(100.0, 0.4)], t=50.0))
    engine.ingest(report(belief=0.0, pairs=[(100.0, 0.8)], t=0.0, ks="ks:wnn"))
    # Second report is 50 s stale: its 100 s horizon is 50 s away now.
    ttf = engine.time_to_failure("obj:m1", "mc:motor-imbalance", probability=0.75)
    assert ttf < 100.0


def test_suspects_passthrough(engine):
    engine.ingest(report(belief=0.9))
    assert engine.suspects(0.5)[0][1] == "mc:motor-imbalance"


def test_stats_count_errors_without_raising(engine):
    # Force an internal FusionError path: conflicting certainty.
    engine.ingest(report(cond="mc:motor-imbalance", belief=1.0))
    assert engine.ingest(report(cond="mc:shaft-misalignment", belief=1.0)) is False
    assert engine.stats.rejected == 1
    assert engine.stats.errors
    # The rejected report left the fused state as it was.
    state = engine.diagnostic.state("obj:m1", GROUP)
    assert state.report_count == 1
    assert state.beliefs["mc:motor-imbalance"] == pytest.approx(1.0)


def test_multisource_reinforcement_via_engine(engine):
    engine.ingest(report(belief=0.6, ks="ks:dli"))
    engine.ingest(report(belief=0.6, ks="ks:sbfr"))
    state = engine.diagnostic.state("obj:m1", GROUP)
    assert state.beliefs["mc:motor-imbalance"] == pytest.approx(1 - 0.16)
