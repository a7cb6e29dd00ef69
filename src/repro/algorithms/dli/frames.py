"""Frame-based rules.

A *frame* packages one diagnosis: which machine condition it asserts,
how to measure its signature strength from the averaged spectrum (and
waveform scalars), and how process parameters *sensitize* it.  §6.1's
worked example: "the DLI expert system rule for bearing looseness can
be sensitized to available load indicators (such as pre-rotation vane
position) in order to ensure that a false positive bearing looseness
call is not made when the compressor enters a low load period of
operation."

Sensitization is a multiplicative threshold adjustment: the rule's raw
strength is divided by ``sensitizer(process) >= 1`` before scoring, so
conditions expected to look noisier in the current regime must show
proportionally more signature to alarm.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.common.errors import MprosError
from repro.dsp.batch import SpectralView
from repro.dsp.fft import Spectrum
from repro.plant.rotating import MachineKinematics

#: Measures signature strength (>= 0; 1.0 ≈ full-scale defect).  May
#: optionally accept a fifth :class:`SpectralView` argument to share
#: cached transforms with the other frames of the same analysis.
StrengthFn = Callable[[Spectrum, np.ndarray, float, MachineKinematics], float]
#: Maps process variables to a threshold multiplier (>= 1).
SensitizerFn = Callable[[dict[str, float]], float]


@lru_cache(maxsize=256)
def _accepts_view(fn: Callable) -> bool:
    """Whether a strength function takes the optional SpectralView arg.

    Inspected once per function so legacy four-argument rules (user
    rulebases, tests) keep working unmodified.
    """
    try:
        params = list(inspect.signature(fn).parameters.values())
    except (TypeError, ValueError):  # builtins / exotic callables
        return False
    if any(p.kind == p.VAR_POSITIONAL for p in params):
        return True
    positional = [
        p
        for p in params
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    return len(positional) >= 5


@dataclass(frozen=True)
class RuleResult:
    """Outcome of evaluating one frame."""

    condition_id: str
    score: float            # severity score in [0, 1]
    raw_strength: float     # before sensitization, for explanations
    sensitization: float    # the divisor that was applied
    explanation: str

    @property
    def fired(self) -> bool:
        """Whether the rule considers the condition present at all."""
        return self.score > 0.0


@dataclass(frozen=True)
class RuleFrame:
    """One frame-based diagnostic rule.

    Attributes
    ----------
    condition_id:
        The machine condition this frame diagnoses (§7 id).
    strength:
        Signature-strength measurement over (spectrum, waveform,
        sample_rate, kinematics).
    threshold:
        Minimum *sensitized* strength that fires the rule; below it the
        score is 0 (no report).
    full_scale:
        Sensitized strength mapped to score 1.0; scores scale linearly
        between threshold and full scale.
    sensitizers:
        Process-parameter threshold adjustments, each returning a
        multiplier >= 1.
    describe:
        Human-readable template for the §7 Explanation field; receives
        the raw strength.
    """

    condition_id: str
    strength: StrengthFn
    threshold: float = 0.1
    full_scale: float = 1.0
    sensitizers: tuple[SensitizerFn, ...] = ()
    describe: str = "{condition}: signature strength {strength:.3f}"

    def __post_init__(self) -> None:
        if not self.condition_id:
            raise MprosError("rule frame needs a condition id")
        if not 0 <= self.threshold < self.full_scale:
            raise MprosError(
                f"need 0 <= threshold < full_scale, got ({self.threshold}, {self.full_scale})"
            )

    def evaluate(
        self,
        spectrum: Spectrum,
        waveform: np.ndarray,
        sample_rate: float,
        kinematics: MachineKinematics,
        process: dict[str, float],
        spectra: SpectralView | None = None,
    ) -> RuleResult:
        """Apply the frame; returns a result (score 0 if not fired).

        ``spectra`` is an optional shared view over the waveform's
        cached transforms; frames whose strength function accepts it
        avoid recomputing the full-resolution spectrum per frame.
        """
        if spectra is not None and _accepts_view(self.strength):
            raw = float(
                self.strength(spectrum, waveform, sample_rate, kinematics, spectra)
            )
        else:
            raw = float(self.strength(spectrum, waveform, sample_rate, kinematics))
        if raw < 0:
            raw = 0.0
        divisor = 1.0
        for s in self.sensitizers:
            m = float(s(process))
            if m < 1.0:
                raise MprosError(
                    f"sensitizer for {self.condition_id} returned {m} < 1"
                )
            divisor *= m
        adjusted = raw / divisor
        if adjusted < self.threshold:
            score = 0.0
        else:
            score = (adjusted - self.threshold) / (self.full_scale - self.threshold)
            score = min(max(score, 0.0), 1.0)
            # A fired rule always reports at least a sliver of severity.
            score = max(score, 0.05)
        return RuleResult(
            condition_id=self.condition_id,
            score=score,
            raw_strength=raw,
            sensitization=divisor,
            explanation=self.describe.format(condition=self.condition_id, strength=raw),
        )


def load_sensitizer(
    gain: float = 1.5, indicator: str = "prv_position_pct"
) -> SensitizerFn:
    """The §6.1 low-load sensitization.

    At full load the multiplier is 1 (no adjustment); as the
    pre-rotation vanes close the threshold rises up to ``1 + gain``,
    matching the extra vibration an unloaded compressor shows.
    """

    def sensitize(process: dict[str, float]) -> float:
        prv = process.get(indicator)
        if prv is None:
            return 1.0
        load = min(max(float(prv) / 100.0, 0.0), 1.0)
        return 1.0 + gain * (1.0 - load)

    return sensitize
