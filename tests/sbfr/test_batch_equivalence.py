"""Formal equivalence of the vectorized SBFR executor.

The watch grid and the grid→interpreter migration are both claimed
to be *exact* reimplementations of the AST interpreter's semantics.
These tests replay long randomized traces through both sides and
compare complete state AND status trajectories — not just final
values — so a single divergent cycle anywhere fails loudly.
"""

import numpy as np
import pytest

from repro.algorithms.base import SourceContext
from repro.algorithms.sbfr_source import SbfrKnowledgeSource, SbfrWatch
from repro.sbfr import (
    SbfrSystem,
    SbfrWatchGrid,
    count_threshold_machine,
    level_alarm_machine,
)


def test_watch_grid_matches_interpreter_pairs():
    """The grid's fused level+counter step against real machine pairs,
    including missing-channel cycles (presence mask vs dict samples)."""
    rng = np.random.default_rng(7)
    n_watches, n_objects, cycles = 5, 12, 2000
    thresholds = rng.uniform(0.3, 0.7, size=n_watches)
    channels = [f"pv{i}" for i in range(n_watches)]

    grid = SbfrWatchGrid(thresholds, hold_cycles=2, repeat_count=3)
    rows = np.array([grid.add_row() for _ in range(n_objects)])

    systems = []
    for _ in range(n_objects):
        sys_ = SbfrSystem(channels=channels)
        for i in range(n_watches):
            alarm = sys_.add_machine(
                level_alarm_machine(channel=i, threshold=float(thresholds[i]),
                                    hold_cycles=2)
            )
            sys_.add_machine(count_threshold_machine(watched_machine=alarm, count=3))
        systems.append(sys_)

    values = rng.normal(0.5, 0.25, size=(cycles, n_objects, n_watches))
    present = rng.random(size=(cycles, n_objects, n_watches)) < 0.8

    for c in range(cycles):
        cstatus = grid.cycle_rows(rows, values[c], present[c])
        for o, sys_ in enumerate(systems):
            sample = {
                channels[i]: float(values[c, o, i])
                for i in range(n_watches)
                if present[c, o, i]
            }
            sys_.cycle(sample)
            for i in range(n_watches):
                level, counter = sys_.states[2 * i], sys_.states[2 * i + 1]
                where = f"cycle {c} object {o} watch {i}"
                assert grid.lstate[rows[o], i] == level.state, where
                assert grid.lstatus[rows[o], i] == level.status, where
                assert grid.cstate[rows[o], i] == counter.state, where
                assert cstatus[o, i] == counter.status, where
                assert grid.ccount[rows[o], i] == counter.locals[0], where
            # Consume fired flags on both sides, as the source does.
            for i in np.flatnonzero(cstatus[o]):
                grid.consume(rows[o], int(i))
                sys_.set_status(2 * int(i) + 1, 0)


WATCHES = (
    SbfrWatch("pv0", 0.6, "mc:w0"),
    SbfrWatch("pv1", 0.5, "mc:w1"),
    SbfrWatch("pv2", 0.4, "mc:w2", invert=True),
)


def _report_keys(reports):
    return [
        (r.sensed_object_id, r.machine_condition_id, r.severity, r.belief,
         r.explanation)
        for r in reports
    ]


def _ctx_stream(n_objects, scans, seed):
    rng = np.random.default_rng(seed)
    out = []
    for s in range(scans):
        for o in range(n_objects):
            proc = {
                w.channel: float(rng.normal(0.5, 0.2))
                for w in WATCHES
                if rng.random() < 0.9
            }
            out.append(
                SourceContext(
                    sensed_object_id=f"obj:m{o}",
                    timestamp=60.0 * (s + 1),
                    process=proc,
                    dc_id="dc:test",
                )
            )
    return out


def _never_firing_machine():
    return level_alarm_machine(channel=0, threshold=1e9, hold_cycles=2)


def test_source_grid_vs_scalar_reports_identical():
    """The knowledge source emits identical reports whether its objects
    run on the grid or on per-object interpreters."""
    grid_src = SbfrKnowledgeSource(watches=WATCHES)
    scalar_src = SbfrKnowledgeSource(watches=WATCHES)
    # Installing any machine forces scalar mode; this one never fires,
    # so the report streams stay comparable.
    scalar_src.install_machine(_never_firing_machine(), "mc:never")
    assert scalar_src._systems is not None

    for ctx in _ctx_stream(n_objects=6, scans=150, seed=11):
        assert _report_keys(grid_src.analyze(ctx)) == _report_keys(
            scalar_src.analyze(ctx)
        )


def test_source_migration_preserves_trend_state():
    """A closer-look download mid-run migrates every grid row onto the
    interpreter with state intact: the continued stream must match a
    source that ran scalar from the start."""
    migrating = SbfrKnowledgeSource(watches=WATCHES)
    scalar = SbfrKnowledgeSource(watches=WATCHES)
    scalar.install_machine(_never_firing_machine(), "mc:never")

    ctxs = _ctx_stream(n_objects=6, scans=150, seed=23)
    split = len(ctxs) // 2
    for ctx in ctxs[:split]:
        assert _report_keys(migrating.analyze(ctx)) == _report_keys(
            scalar.analyze(ctx)
        )
    assert migrating._systems is None  # still on the grid
    migrating.install_machine(_never_firing_machine(), "mc:never")
    assert migrating._systems is not None  # migrated, state carried over
    for ctx in ctxs[split:]:
        assert _report_keys(migrating.analyze(ctx)) == _report_keys(
            scalar.analyze(ctx)
        )


def test_source_analyze_batch_matches_serial_analyze():
    """analyze_batch is a pure fan-out of analyze (same reports, same
    order) for a whole scan of contexts."""
    batch_src = SbfrKnowledgeSource(watches=WATCHES)
    serial_src = SbfrKnowledgeSource(watches=WATCHES)

    ctxs = _ctx_stream(n_objects=8, scans=100, seed=31)
    scan_width = 8
    for s in range(0, len(ctxs), scan_width):
        scan = ctxs[s : s + scan_width]
        got = batch_src.analyze_batch(scan)
        want = [serial_src.analyze(ctx) for ctx in scan]
        assert [_report_keys(g) for g in got] == [_report_keys(w) for w in want]


def test_grid_rejects_bad_shapes():
    grid = SbfrWatchGrid(np.array([0.5, 0.6]), hold_cycles=1, repeat_count=2)
    row = grid.add_row()
    with pytest.raises(Exception):
        grid.cycle_rows(np.array([row]), np.zeros((1, 3)), np.ones((1, 3), bool))
    with pytest.raises(Exception):
        grid.cycle_rows(np.array([row + 5]), np.zeros((1, 2)), np.ones((1, 2), bool))
