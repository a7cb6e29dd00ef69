import numpy as np
import pytest

from repro.common.errors import MprosError
from repro.hpc import (
    ChannelSummary,
    EmbeddedBudget,
    FeaturePipeline,
    FleetConfig,
    LoadGenerator,
    check_sbfr_budget,
    fleet_data_rate,
)
from repro.hpc.budget import PAPER_SBFR_BUDGET, interpreter_code_bytes
from repro.sbfr import build_spike_machine, build_stiction_machine


# -- data rates -----------------------------------------------------------------

def test_fleet_rate_reaches_millions():
    """§1: 'millions of data points per second' fleet-wide."""
    rates = fleet_data_rate(FleetConfig())
    assert rates.fleet > 1e6
    assert rates.per_ship * 30 == pytest.approx(rates.fleet)
    assert rates.per_dc * 200 == pytest.approx(rates.per_ship)


def test_fleet_config_validation():
    with pytest.raises(MprosError):
        FleetConfig(n_ships=0)
    with pytest.raises(MprosError):
        FleetConfig(dynamic_duty_cycle=0.0)


def test_load_generator_block_geometry():
    gen = LoadGenerator(8, 1024, np.random.default_rng(0))
    block = gen.next_block()
    assert block.shape == (8, 1024)
    assert gen.points_per_block == 8 * 1024
    assert gen.blocks_generated == 1


def test_load_generator_reuses_buffer():
    gen = LoadGenerator(2, 64, np.random.default_rng(0))
    a = gen.next_block()
    b = gen.next_block()
    assert a is b  # in-place refill, no per-block allocation


def test_load_generator_validation():
    with pytest.raises(MprosError):
        LoadGenerator(0, 10, np.random.default_rng(0))


# -- pipeline ---------------------------------------------------------------------

def _naive_summary(block: np.ndarray) -> ChannelSummary:
    """Per-channel loop reference: same outputs, no batching."""
    rms, peak, crest = [], [], []
    for x in block:
        rms.append(np.sqrt(np.mean(x**2)))
        peak.append(np.max(np.abs(x)))
        crest.append(peak[-1] / rms[-1] if rms[-1] > 0 else 0.0)
    return ChannelSummary(rms=np.array(rms), peak=np.array(peak), crest=np.array(crest))


def test_pipeline_matches_naive_reference():
    rng = np.random.default_rng(1)
    block = rng.normal(size=(6, 512))
    pipe = FeaturePipeline(6, 512, 16384.0)
    fast = pipe.process(block)
    slow = _naive_summary(block)
    assert np.allclose(fast.rms, slow.rms)
    assert np.allclose(fast.peak, slow.peak)
    assert np.allclose(fast.crest, slow.crest)


def test_pipeline_counts_throughput():
    pipe = FeaturePipeline(4, 256, 8192.0)
    for _ in range(3):
        pipe.process(np.zeros((4, 256)))
    assert pipe.blocks_processed == 3
    assert pipe.points_processed == 3 * 4 * 256


def test_pipeline_validates():
    with pytest.raises(MprosError):
        FeaturePipeline(0, 256, 8192.0)
    with pytest.raises(MprosError):
        FeaturePipeline(4, 256, -1.0)
    pipe = FeaturePipeline(4, 256, 8192.0)
    with pytest.raises(MprosError):
        pipe.process(np.zeros((4, 128)))


def test_pipeline_zero_signal_safe():
    pipe = FeaturePipeline(2, 64, 8192.0)
    s = pipe.process(np.zeros((2, 64)))
    assert np.all(s.rms == 0) and np.all(s.crest == 0)


# -- budgets ---------------------------------------------------------------------------

def test_budget_validation():
    with pytest.raises(MprosError):
        EmbeddedBudget(total_bytes=0)


def test_interpreter_code_bytes_order_of_paper():
    """Paper: interpreter ≈ 2000 bytes; ours lands the same order."""
    size = interpreter_code_bytes()
    assert 300 <= size <= 8000


def test_hundred_machines_fit_paper_budget():
    """§6.3: 100 machines + interpreter < 32 KB, cycle < 4 ms."""
    machines = [build_spike_machine(i % 16, self_index=2 * i) for i in range(50)]
    machines += [
        build_stiction_machine(i % 16, spike_machine=2 * i, self_index=2 * i + 1)
        for i in range(50)
    ]
    report = check_sbfr_budget(machines, cycle_seconds=1e-3)
    assert len(machines) == PAPER_SBFR_BUDGET.n_machines
    assert report.fits_memory
    assert report.fits_cycle
    assert "OK" in report.describe()


def test_budget_report_flags_overruns():
    report = check_sbfr_budget(
        [build_spike_machine(0)], cycle_seconds=10.0,
        budget=EmbeddedBudget(total_bytes=10, cycle_seconds=1e-3),
    )
    assert not report.fits_memory and not report.fits_cycle
    assert "OVER" in report.describe()
