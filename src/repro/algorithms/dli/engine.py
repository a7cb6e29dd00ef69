"""The DLI expert-system engine.

Runs the frame rulebase over an averaged spectrum of the latest
vibration block plus the process parameters, grades fired rules,
attaches believability factors and the elementary grade-based
prognostic, and emits §7 reports.  "Adapted to run in a continuous
mode" (§1.1): the engine is stateless per call, so the DC scheduler can
invoke it on every acquisition.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.algorithms.base import SourceContext
from repro.algorithms.dli.believability import ReversalDatabase
from repro.algorithms.dli.frames import RuleFrame
from repro.algorithms.dli.rules import standard_rulebase
from repro.algorithms.dli.severity import prognostic_from_grade, score_to_grade
from repro.common.errors import MprosError
from repro.common.ids import ObjectId
from repro.dsp.batch import SpectralView
from repro.dsp.fft import estimate_shaft_speed
from repro.protocol.report import FailurePredictionReport


@dataclass
class DliExpertSystem:
    """The frame-based vibration expert system as a knowledge source.

    Parameters
    ----------
    knowledge_source_id:
        §7 KS ID of this instance.
    rulebase:
        Frames to evaluate (default: :func:`standard_rulebase`).
    reversal_db:
        Believability statistics; None means full belief (1.0) minus
        the rule's own uncertainty.
    n_averages:
        Spectral averages per analysis.
    """

    knowledge_source_id: ObjectId = "ks:dli"
    rulebase: tuple[RuleFrame, ...] = ()
    reversal_db: ReversalDatabase | None = None
    n_averages: int = 4
    #: Track running speed from the spectrum before rule evaluation
    #: (±3 % search around nameplate).  Real machines drift with load;
    #: order-based rules mis-window without this.
    track_speed: bool = True

    def __post_init__(self) -> None:
        if not self.rulebase:
            self.rulebase = standard_rulebase()

    def analyze(self, ctx: SourceContext) -> list[FailurePredictionReport]:
        """Evaluate every frame against the context's vibration block.

        Returns one report per fired rule.  Contexts without a waveform
        or kinematics produce no reports (DLI is vibration-only).
        Spectra are shared across rule frames through one
        :class:`SpectralView` — the scan-wide ``ctx.spectra`` when the
        DC provides one, else a view built over the waveform here.
        """
        if ctx.waveform is None or ctx.kinematics is None:
            return []
        if ctx.sample_rate <= 0:
            raise MprosError("vibration context requires a positive sample_rate")
        view = ctx.spectra
        if view is None:
            view = SpectralView.from_waveform(ctx.waveform, ctx.sample_rate)
        spec = view.averaged(self.n_averages)
        kinematics = ctx.kinematics
        if self.track_speed:
            actual = estimate_shaft_speed(
                view.full(), kinematics.shaft_hz, search_pct=8.0
            )
            if actual != kinematics.shaft_hz:
                kinematics = replace(kinematics, shaft_hz=actual)
        reports: list[FailurePredictionReport] = []
        for frame in self.rulebase:
            result = frame.evaluate(
                spec,
                ctx.waveform,
                ctx.sample_rate,
                kinematics,
                ctx.process,
                spectra=view,
            )
            if not result.fired:
                continue
            grade = score_to_grade(result.score)
            believability = (
                self.reversal_db.believability(result.condition_id)
                if self.reversal_db is not None
                else 1.0
            )
            # Belief combines rule confidence (how far past threshold)
            # with the per-diagnosis believability factor.
            rule_confidence = 0.5 + 0.5 * min(1.0, result.score * 2.0)
            belief = believability * rule_confidence
            reports.append(
                FailurePredictionReport(
                    knowledge_source_id=self.knowledge_source_id,
                    sensed_object_id=ctx.sensed_object_id,
                    machine_condition_id=result.condition_id,
                    severity=result.score,
                    belief=belief,
                    timestamp=ctx.timestamp,
                    dc_id=ctx.dc_id,
                    explanation=(
                        f"{result.explanation} (grade {grade.label}, "
                        f"sensitization x{result.sensitization:.2f})"
                    ),
                    recommendations=_RECOMMENDATIONS.get(result.condition_id, ""),
                    prognostic=prognostic_from_grade(grade),
                )
            )
        return reports


_RECOMMENDATIONS: dict[str, str] = {
    "mc:motor-imbalance": "Field balance the rotor at next opportunity.",
    "mc:shaft-misalignment": "Check coupling alignment; laser-align at next shutdown.",
    "mc:bearing-housing-looseness": "Inspect hold-down bolts and housing fit.",
    "mc:bearing-wear": "Schedule bearing replacement; increase monitoring interval.",
    "mc:gear-tooth-wear": "Inspect gear mesh; check lubricant for wear metals.",
    "mc:gear-mesh-misalignment": "Check gearbox alignment and backlash.",
    "mc:motor-rotor-bar": "Perform current-signature analysis; plan rotor repair.",
    "mc:motor-phase-imbalance": "Check supply phases and stator connections.",
}
