"""Golden-master pins on the end-to-end report streams.

Three canonical scenarios are rendered through
:func:`repro.protocol.canonical_json` and compared byte-for-byte
against committed files in ``tests/golden/``.  Any behavioural change
in the scan→report pipeline — DSP, suites, SBFR, scheduling, RNG
derivation — shows up here before it shows up in the field.

Regenerate intentionally with::

    GOLDEN_REGEN=1 PYTHONPATH=src python -m pytest tests/test_golden_master.py

and review the golden diff like any other code change.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.protocol.canonical import canonical_json

GOLDEN_DIR = Path(__file__).parent / "golden"


def _check_golden(name: str, payload: str) -> None:
    path = GOLDEN_DIR / name
    if os.environ.get("GOLDEN_REGEN"):
        path.write_text(payload, encoding="utf-8")
        return
    assert path.exists(), (
        f"missing golden file {path}; regenerate with GOLDEN_REGEN=1"
    )
    golden = path.read_text(encoding="utf-8")
    assert payload == golden, (
        f"{name} drifted from its golden master; if the change is "
        "intentional, regenerate with GOLDEN_REGEN=1 and review the diff"
    )


def test_quickstart_scenario_reports_are_pinned():
    """The quickstart story: 2 chillers, progressive motor imbalance."""
    from repro.plant.faults import FaultKind, progressive
    from repro.system import build_mpros_system

    system = build_mpros_system(n_chillers=2, seed=42)
    motor = system.units[0].motor
    system.run(hours=0.5)
    system.inject_fault(
        motor,
        progressive(
            FaultKind.MOTOR_IMBALANCE,
            onset=system.kernel.now(),
            end=system.kernel.now() + 3600.0,
            shape="exponential",
        ),
    )
    system.run(hours=1.5)
    reports = system.pdme.router.workers[0].store.all_reports()
    assert reports, "quickstart scenario produced no reports"
    _check_golden("quickstart.json", canonical_json(reports))


def test_seeded_campaign_reports_are_pinned():
    """A reduced §9 campaign: 3 FMEA modes, fixed seeds."""
    from repro.algorithms.dli.engine import DliExpertSystem
    from repro.algorithms.fuzzy.engine import FuzzyDiagnostics
    from repro.algorithms.sbfr_source import SbfrKnowledgeSource
    from repro.plant.faults import FaultKind
    from repro.validation import SeededFaultCampaign

    campaign = SeededFaultCampaign(
        sources=[DliExpertSystem(), FuzzyDiagnostics(), SbfrKnowledgeSource()],
        faults=(
            FaultKind.MOTOR_IMBALANCE,
            FaultKind.BEARING_WEAR,
            FaultKind.BEARING_HOUSING_LOOSENESS,
        ),
        duration=1200.0,
        scan_period=120.0,
        rng=np.random.default_rng(0),
    )
    records = campaign.run(healthy_controls=1)
    reports = [r for record in records for r in record.reports]
    assert reports, "campaign produced no reports"
    _check_golden("seeded_campaign.json", canonical_json(reports))


@pytest.fixture(scope="module")
def fleet_serial_json() -> str:
    from repro.hpc.parallel import replay_fleet
    from repro.system import build_fleet_specs

    specs = build_fleet_specs(
        n_dcs=3, machines_per_dc=2, hours=0.5, seed=0
    )
    return canonical_json(replay_fleet(specs, n_workers=1))


def test_fleet_replay_reports_are_pinned(fleet_serial_json):
    """The fleet replay scenario itself is golden-pinned."""
    _check_golden("fleet_replay.json", fleet_serial_json)


def test_fleet_replay_parallel_is_byte_identical(fleet_serial_json):
    """Process-pool replay must render the exact same bytes as serial.

    This is the determinism contract of the multi-DC executor: DCs
    share nothing, all randomness derives from (seed, dc_index), and
    the merge is a pure function of the per-DC streams.
    """
    from repro.hpc.parallel import replay_fleet
    from repro.system import build_fleet_specs

    specs = build_fleet_specs(
        n_dcs=3, machines_per_dc=2, hours=0.5, seed=0
    )
    parallel_json = canonical_json(replay_fleet(specs, n_workers=2))
    assert parallel_json == fleet_serial_json
