#!/usr/bin/env python
"""§1's HPC claim made concrete: fleet data loads and DC throughput.

Accounts the "millions of data points per second" fleet-wide load,
measures whether one DC-class RMS/peak/crest pipeline keeps up with its
share — vectorized vs a per-channel loop — then replays a whole
multi-DC fleet scenario through the batched scan→report pipeline,
serial and parallel, and shows that both executions produce the exact
same report stream.

Run:  python examples/fleet_scale.py
"""

import time

import numpy as np

from repro.hpc import (
    FeaturePipeline,
    FleetConfig,
    LoadGenerator,
    fleet_data_rate,
)


def per_channel_summary(block: np.ndarray) -> list[tuple[float, float, float]]:
    """RMS, peak and crest one channel at a time (the loop the
    vectorized pipeline replaces)."""
    out = []
    for x in block:
        rms = float(np.sqrt(np.mean(x**2)))
        peak = float(np.max(np.abs(x)))
        out.append((rms, peak, peak / rms if rms > 0 else 0.0))
    return out


def main() -> None:
    config = FleetConfig()
    rates = fleet_data_rate(config)
    print("Fleet data-rate accounting (paper: 'millions of data points/second'):")
    print(f"  per DC:   {rates.per_dc:>14,.0f} points/s")
    print(f"  per ship: {rates.per_ship:>14,.0f} points/s  ({config.dcs_per_ship} DCs)")
    print(f"  fleet:    {rates.fleet:>14,.0f} points/s  ({config.n_ships} ships)")

    n_channels, block = 32, 4096
    gen = LoadGenerator(n_channels, block, np.random.default_rng(0))
    pipeline = FeaturePipeline(n_channels, block, 16384.0)

    print(f"\nDC feature pipeline: {n_channels} channels x {block}-sample blocks")
    n_blocks = 200
    t0 = time.perf_counter()  # mpros: allow[lint.wall-clock]
    for _ in range(n_blocks):
        pipeline.process(gen.next_block())
    dt = time.perf_counter() - t0  # mpros: allow[lint.wall-clock]
    throughput = pipeline.points_processed / dt
    print(f"  vectorized: {throughput:,.0f} points/s "
          f"({throughput / rates.per_dc:.1f}x one DC's load)")

    t0 = time.perf_counter()  # mpros: allow[lint.wall-clock]
    for _ in range(20):
        per_channel_summary(gen.next_block())
    loop_rate = 20 * gen.points_per_block / (time.perf_counter() - t0)  # mpros: allow[lint.wall-clock]
    print(f"  per-channel loop: {loop_rate:,.0f} points/s "
          f"({throughput / loop_rate:.1f}x slower than vectorized)")

    print("\nWhole-DC fleet replay: 4 DCs x 2 machines, 1 simulated hour each")
    from repro.hpc import replay_fleet
    from repro.protocol.canonical import canonical_json
    from repro.system import build_fleet_specs

    specs = build_fleet_specs(n_dcs=4, machines_per_dc=2, hours=1.0, seed=0)
    sim_s = sum(s.duration_s for s in specs)
    t0 = time.perf_counter()  # mpros: allow[lint.wall-clock]
    serial_reports = replay_fleet(specs, n_workers=1)
    t_serial = time.perf_counter() - t0  # mpros: allow[lint.wall-clock]
    t0 = time.perf_counter()  # mpros: allow[lint.wall-clock]
    parallel_reports = replay_fleet(specs, n_workers=4)
    t_parallel = time.perf_counter() - t0  # mpros: allow[lint.wall-clock]
    identical = canonical_json(serial_reports) == canonical_json(parallel_reports)
    print(f"  serial:    {t_serial:6.2f} s  ({sim_s / t_serial:,.0f} sim-s per wall-s)")
    print(f"  4 workers: {t_parallel:6.2f} s  ({sim_s / t_parallel:,.0f} sim-s per wall-s)")
    print(f"  reports: {len(serial_reports)}; "
          f"parallel stream byte-identical to serial: {identical}")
    assert identical, "parallel replay diverged from serial"


if __name__ == "__main__":
    main()
