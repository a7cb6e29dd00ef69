"""Vectorized execution of the layered watch pattern across many objects.

:class:`~repro.algorithms.sbfr_source.SbfrKnowledgeSource` runs the same
(level-alarm → count-threshold) machine pair per watch for every sensed
object of a DC.  On the generic interpreter that is
``2 * n_watches * n_objects`` AST walks per process scan; the grid
advances the whole fleet of pairs with a handful of numpy ops over
``(n_rows, n_watches)`` arrays — one row per sensed object.

Semantics match the interpreter exactly (equivalence-tested in
``tests/sbfr/test_batch_equivalence.py``): machines are conceptually ordered
``level_0, counter_0, level_1, counter_1, ...`` so each counter sees its
level machine's *fresh* status within the same cycle, missing channels
hold their previous value (§5.1 fragmentary-input tolerance), and the
∆T timer resets only on a state *change*.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import SbfrError

#: Level-machine states (shared with :func:`repro.sbfr.library.level_alarm_machine`).
WAIT, HIGH, ALARM = 0, 1, 2
#: Counter-machine states (shared with :func:`repro.sbfr.library.count_threshold_machine`).
C_WAIT, C_FIRED = 0, 1


class SbfrWatchGrid:
    """A grid of layered (level, counter) machine pairs.

    Rows are sensed objects, columns are watches.  Each cell behaves
    exactly like a :func:`~repro.sbfr.library.level_alarm_machine`
    feeding a :func:`~repro.sbfr.library.count_threshold_machine` on the
    generic interpreter; rows advance independently (an object only
    cycles when its DC scans it).

    Parameters
    ----------
    thresholds:
        Per-watch *signed* thresholds, shape (n_watches,) — inverted
        watches are handled by the caller negating threshold and sample.
    hold_cycles:
        Level-machine hold before the alarm fires (scalar or per-watch).
    repeat_count:
        Alarms the counter machine accumulates before firing.
    """

    def __init__(
        self,
        thresholds: np.ndarray,
        hold_cycles: int | np.ndarray = 2,
        repeat_count: int | np.ndarray = 3,
    ) -> None:
        self.thresholds = np.ascontiguousarray(thresholds, dtype=np.float64)
        if self.thresholds.ndim != 1 or self.thresholds.shape[0] < 1:
            raise SbfrError("thresholds must be 1-D with >= 1 watch")
        w = self.thresholds.shape[0]
        holds = np.asarray(hold_cycles, dtype=np.int64)
        repeats = np.asarray(repeat_count, dtype=np.int64)
        if np.any(holds < 0):
            raise SbfrError("hold_cycles must be >= 0")
        if np.any(repeats < 1):
            raise SbfrError("repeat_count must be >= 1")
        self.hold_cycles = np.ascontiguousarray(np.broadcast_to(holds, (w,)))
        self.repeat_count = np.ascontiguousarray(np.broadcast_to(repeats, (w,)))
        self._alloc(0)

    def _alloc(self, rows: int) -> None:
        w = self.n_watches
        self.lstate = np.zeros((rows, w), dtype=np.int8)
        self.lstatus = np.zeros((rows, w), dtype=np.int8)
        self.lentered = np.zeros((rows, w), dtype=np.int64)
        self.cstate = np.zeros((rows, w), dtype=np.int8)
        self.cstatus = np.zeros((rows, w), dtype=np.int8)
        self.ccount = np.zeros((rows, w), dtype=np.int64)
        self.centered = np.zeros((rows, w), dtype=np.int64)
        #: Last *signed* input per cell; starts at 0 like interpreter inputs.
        self.inputs = np.zeros((rows, w), dtype=np.float64)
        self.cycles = np.zeros(rows, dtype=np.int64)

    @property
    def n_watches(self) -> int:
        """Watches (machine-pair columns) per row."""
        return self.thresholds.shape[0]

    @property
    def n_rows(self) -> int:
        """Sensed objects currently tracked."""
        return self.cycles.shape[0]

    def add_row(self) -> int:
        """Register a new sensed object; returns its row index."""
        grow = [
            "lstate", "lstatus", "lentered", "cstate", "cstatus",
            "ccount", "centered", "inputs", "cycles",
        ]
        for name in grow:
            arr = getattr(self, name)
            pad = np.zeros((1,) + arr.shape[1:], dtype=arr.dtype)
            setattr(self, name, np.concatenate([arr, pad], axis=0))
        return self.n_rows - 1

    def cycle_rows(
        self, rows: np.ndarray, values: np.ndarray, present: np.ndarray
    ) -> np.ndarray:
        """Advance the given rows one cycle each.

        Parameters
        ----------
        rows:
            Row indices to advance, shape (k,), no duplicates.
        values:
            Signed samples, shape (k, n_watches); only cells where
            ``present`` is True are read — absent cells hold their
            previous value, mirroring the interpreter's dict-sample
            semantics.
        present:
            Boolean mask of supplied cells, shape (k, n_watches).

        Returns
        -------
        The counter status sub-matrix for ``rows`` *after* the cycle —
        nonzero cells are newly-or-still fired watch conditions.
        """
        rows = np.asarray(rows, dtype=np.intp)
        values = np.asarray(values, dtype=np.float64)
        present = np.asarray(present, dtype=bool)
        k, w = rows.shape[0], self.n_watches
        if values.shape != (k, w) or present.shape != (k, w):
            raise SbfrError(
                f"values/present must be ({k}, {w}), got "
                f"{values.shape} / {present.shape}"
            )
        if np.any(rows < 0) or np.any(rows >= self.n_rows):
            raise SbfrError("row index out of range")

        # Gather (fancy indexing copies; scattered back at the end).
        inputs = self.inputs[rows]
        np.copyto(inputs, values, where=present)
        ls = self.lstate[rows]
        lst = self.lstatus[rows]
        lent = self.lentered[rows]
        cs = self.cstate[rows]
        cst = self.cstatus[rows]
        cc = self.ccount[rows]
        cent = self.centered[rows]
        now = self.cycles[rows][:, None]

        # -- level machines (evaluated first, like index 2i) ---------------
        above = inputs > self.thresholds
        elapsed = now - lent
        wait = ls == WAIT
        high = ls == HIGH
        alarm = ls == ALARM
        to_high = wait & above
        to_wait_h = high & ~above
        to_alarm = high & above & (elapsed >= self.hold_cycles)
        to_wait_a = alarm & ~above
        ls[to_high] = HIGH
        ls[to_wait_h] = WAIT
        ls[to_alarm] = ALARM
        ls[to_wait_a] = WAIT
        changed = to_high | to_wait_h | to_alarm | to_wait_a
        lent[changed] = np.broadcast_to(now, (k, w))[changed]
        lst[to_alarm] |= 1
        lst[to_wait_a] = 0
        # ALARM self-loop: re-assert a consumed flag while still above.
        reassert = alarm & above & (lst == 0)
        lst[reassert] |= 1

        # -- counter machines (see the level's fresh status) ---------------
        fire = (cs == C_WAIT) & (cc >= self.repeat_count)
        consume = (cs == C_WAIT) & ~fire & (lst != 0)
        reset = (cs == C_FIRED) & (cst == 0)
        cs[fire] = C_FIRED
        cst[fire] |= 1
        cent[fire] = np.broadcast_to(now, (k, w))[fire]
        lst[consume] = 0
        cc[consume] += 1
        cs[reset] = C_WAIT
        cc[reset] = 0
        cent[reset] = np.broadcast_to(now, (k, w))[reset]

        # Scatter back.
        self.inputs[rows] = inputs
        self.lstate[rows] = ls
        self.lstatus[rows] = lst
        self.lentered[rows] = lent
        self.cstate[rows] = cs
        self.cstatus[rows] = cst
        self.ccount[rows] = cc
        self.centered[rows] = cent
        self.cycles[rows] += 1
        return cst

    def consume(self, row: int, watch: int) -> None:
        """Clear a fired counter flag (report emitted — one per episode)."""
        self.cstatus[row, watch] = 0

    def reset(self) -> None:
        """Forget all trend state for every row."""
        self._alloc(self.n_rows)
