"""SBFR-CYCLE: "can cycle with a period of less than 4 milliseconds"
for 100 parallel machines (§6.3), plus the interpreter and the
vectorized watch grid the DCs run.
"""

from benchmarks._util import mean_seconds, trimmed_median_seconds

import numpy as np
import pytest

from repro.sbfr import (
    SbfrSystem,
    SbfrWatchGrid,
    build_spike_machine,
    build_stiction_machine,
    level_alarm_machine,
)

PAPER_CYCLE_LIMIT = 4e-3  # seconds


def _hundred_machine_system():
    system = SbfrSystem(channels=[f"c{i}" for i in range(50)])
    for i in range(50):
        system.add_machine(build_spike_machine(current_channel=i, self_index=2 * i))
        system.add_machine(
            build_stiction_machine(cpos_channel=i, spike_machine=2 * i, self_index=2 * i + 1)
        )
    return system


def test_hundred_machine_cycle(benchmark):
    """One interpreter cycle over 100 machines vs the 4 ms budget."""
    system = _hundred_machine_system()
    rng = np.random.default_rng(0)
    sample = rng.random(50)

    def one_cycle():
        system.cycle(sample)

    benchmark(one_cycle)
    assert not (trimmed_median_seconds(benchmark) >= PAPER_CYCLE_LIMIT)  # NaN-tolerant
    benchmark.extra_info["paper_limit_ms"] = PAPER_CYCLE_LIMIT * 1e3
    benchmark.extra_info["mean_ms"] = round(mean_seconds(benchmark) * 1e3, 4)


@pytest.mark.parametrize("n_machines", [100, 400, 1600])
def test_interpreter_alarm_bank_cycle(benchmark, n_machines):
    """Generic interpreter running n identical level alarms."""
    system = SbfrSystem(channels=[f"c{i}" for i in range(n_machines)])
    for i in range(n_machines):
        system.add_machine(level_alarm_machine(channel=i, threshold=0.7, hold_cycles=2))
    sample = np.random.default_rng(0).random(n_machines)
    benchmark(system.cycle, sample)
    benchmark.extra_info["n_machines"] = n_machines


@pytest.mark.parametrize("n_objects", [100, 400, 1600])
def test_watch_grid_cycle(benchmark, n_objects):
    """One watch-grid cycle: n objects x 5 level+counter watch pairs."""
    grid = SbfrWatchGrid(np.full(5, 0.7), hold_cycles=2, repeat_count=3)
    rows = np.array([grid.add_row() for _ in range(n_objects)])
    values = np.random.default_rng(0).random((n_objects, 5))
    present = np.ones((n_objects, 5), dtype=bool)
    benchmark(grid.cycle_rows, rows, values, present)
    benchmark.extra_info["n_objects"] = n_objects
    benchmark.extra_info["n_machines"] = 2 * 5 * n_objects


def test_watch_grid_block_throughput(benchmark):
    """Whole-block execution rate of the watch grid
    (cycles x machines per second)."""
    n_objects, n_watches, n_cycles = 256, 5, 512
    grid = SbfrWatchGrid(np.full(n_watches, 0.7), hold_cycles=2, repeat_count=3)
    rows = np.array([grid.add_row() for _ in range(n_objects)])
    values = np.random.default_rng(0).random((n_cycles, n_objects, n_watches))
    present = np.ones((n_objects, n_watches), dtype=bool)

    def run_block():
        grid.reset()
        for c in range(n_cycles):
            grid.cycle_rows(rows, values[c], present)

    benchmark(run_block)
    rate = 2 * n_objects * n_watches * n_cycles / mean_seconds(benchmark)
    benchmark.extra_info["machine_cycles_per_s"] = f"{rate:,.0f}"
