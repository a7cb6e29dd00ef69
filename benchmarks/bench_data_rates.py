"""RATES: the §1 data-load claims and the DC's ability to keep up.

"Fleet-wide, thousands of embedded processors will collect millions of
data points per second" — the accounting rows, plus the vectorized-vs-
per-channel-loop RMS/peak/crest ablation and the multiprocessing ship
replay.
"""

from benchmarks._util import mean_seconds, trimmed_median_seconds

import numpy as np
import pytest

from repro.hpc import (
    FeaturePipeline,
    FleetConfig,
    LoadGenerator,
    fleet_data_rate,
    replay_fleet,
)
from repro.protocol.canonical import canonical_json


def _per_channel_summary(block):
    """Ablation baseline: RMS, peak and crest one channel at a time,
    fresh allocations on every step."""
    out = []
    for x in block:
        rms = np.sqrt(np.mean(x**2))
        peak = np.max(np.abs(x))
        out.append((rms, peak, peak / rms if rms > 0 else 0.0))
    return out


def test_fleet_accounting(benchmark):
    """The tier-by-tier points/second table."""
    rates = benchmark(fleet_data_rate, FleetConfig())
    assert rates.fleet > 1e6
    benchmark.extra_info["per_dc_points_s"] = f"{rates.per_dc:,.0f}"
    benchmark.extra_info["per_ship_points_s"] = f"{rates.per_ship:,.0f}"
    benchmark.extra_info["fleet_points_s"] = f"{rates.fleet:,.0f}"
    benchmark.extra_info["paper_claim"] = "millions of data points per second"


@pytest.mark.parametrize("n_channels", [8, 32])
def test_vectorized_pipeline_block(benchmark, n_channels):
    """One block through the vectorized pipeline."""
    block_samples = 4096
    gen = LoadGenerator(n_channels, block_samples, np.random.default_rng(0))
    pipe = FeaturePipeline(n_channels, block_samples, 16384.0)
    block = gen.next_block().copy()
    benchmark(pipe.process, block)
    rate = n_channels * block_samples / mean_seconds(benchmark)
    benchmark.extra_info["points_per_second"] = f"{rate:,.0f}"
    dc_load = fleet_data_rate(FleetConfig()).per_dc
    benchmark.extra_info["x_one_dc_load"] = round(rate / dc_load, 1)


def test_naive_pipeline_block(benchmark):
    """Ablation baseline: per-channel Python loop, fresh allocations."""
    n_channels, block_samples = 32, 4096
    gen = LoadGenerator(n_channels, block_samples, np.random.default_rng(0))
    block = gen.next_block().copy()
    benchmark(_per_channel_summary, block)
    rate = n_channels * block_samples / mean_seconds(benchmark)
    benchmark.extra_info["points_per_second"] = f"{rate:,.0f}"


def test_sustained_throughput_vs_dc_load(benchmark):
    """Sustained generator -> pipeline loop: must exceed one DC's
    average load with margin (the embedded feasibility claim)."""
    n_channels, block_samples = 32, 4096
    gen = LoadGenerator(n_channels, block_samples, np.random.default_rng(0))
    pipe = FeaturePipeline(n_channels, block_samples, 16384.0)

    def run_chunk():
        for _ in range(8):
            pipe.process(gen.next_block())

    benchmark(run_chunk)
    rate = 8 * n_channels * block_samples / trimmed_median_seconds(benchmark)
    dc_load = fleet_data_rate(FleetConfig()).per_dc
    assert not (rate <= 10 * dc_load)  # NaN-tolerant when timing disabled
    benchmark.extra_info["sustained_points_s"] = f"{rate:,.0f}"
    benchmark.extra_info["margin_over_dc_load"] = round(rate / dc_load, 1)


def test_ship_replay_parallel_farm(benchmark):
    """PDME-side replay of many DCs' scenarios across a process pool;
    the pooled report stream is byte-identical to the serial one."""
    from repro.system import build_fleet_specs

    specs = build_fleet_specs(n_dcs=4, machines_per_dc=1, hours=0.25, seed=1)

    def farm():
        return replay_fleet(specs, n_workers=2)

    out = benchmark.pedantic(farm, rounds=2, iterations=1)
    assert out, "faulted DC produced no reports"
    assert canonical_json(out) == canonical_json(replay_fleet(specs, n_workers=1))
    benchmark.extra_info["dcs"] = len(specs)
    benchmark.extra_info["reports"] = len(out)
