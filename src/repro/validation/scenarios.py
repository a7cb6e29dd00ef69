"""Per-scenario prognostic benchmark suite.

Turns §9 validation into a *benchmark*: each :class:`ScenarioSpec`
names a plant domain (the paper's chilled-water prototype, or the
gas-turbine CODLAG propulsion plant), the progressive faults to grow to
failure, the monitoring cadence, and the maintenance cost model.  The
runner replays every fault (plus healthy controls) through the full
knowledge-source stack and fusion engine, measures RUL ground truth
straight from the injected severity profile, and distills a
:class:`~repro.validation.scoring.ScenarioScorecard`.

Everything is seeded: the same spec + seed produces a byte-identical
scorecard (the goldens in ``tests/golden/`` pin exactly that).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from repro.algorithms.base import KnowledgeSource, SourceContext
from repro.algorithms.dli.engine import DliExpertSystem
from repro.algorithms.fuzzy.engine import FuzzyDiagnostics
from repro.algorithms.sbfr_source import SbfrKnowledgeSource, default_turbine_watches
from repro.common.errors import MprosError
from repro.common.rng import derive_rng, make_rng
from repro.fusion.engine import KnowledgeFusionEngine
from repro.fusion.groups import default_chiller_groups, default_turbine_groups
from repro.plant.chiller import ChillerSimulator
from repro.plant.faults import FaultKind, progressive
from repro.plant.turbine import TurbineSimulator
from repro.validation.scoring import (
    CostModel,
    RunScore,
    ScenarioScorecard,
    score_run,
    score_scenario,
)


@dataclass(frozen=True)
class ScenarioSpec:
    """One named benchmark scenario.

    Attributes
    ----------
    name:
        Registry key (also the scorecard's ``scenario`` field).
    plant:
        ``"chiller"`` or ``"turbine"``.
    faults:
        Fault kinds grown to failure, one run each.
    onset / failure_time:
        Severity profile window: the fault starts at ``onset`` and
        reaches severity 1.0 (functional failure — the RUL ground
        truth) at ``failure_time``.
    duration / scan_period:
        Monitoring timeline; ``duration`` must reach ``failure_time``.
    n_samples:
        Vibration block length per scan.
    healthy_controls:
        Extra no-fault runs; anything reported there is a false alarm.
    cost_model:
        Maintenance economics for :mod:`repro.validation.scoring`.
    description:
        One line for ``mpros score`` output and docs.
    """

    name: str
    plant: str
    faults: tuple[FaultKind, ...]
    onset: float = 300.0
    failure_time: float = 3300.0
    duration: float = 3600.0
    scan_period: float = 120.0
    # 2-second blocks: the DLI sideband rules need ~0.5 Hz spectral
    # resolution to separate pole-pass sidebands from 1x; shorter
    # blocks alias them into rotor-bar false alarms.
    n_samples: int = 32768
    healthy_controls: int = 2
    cost_model: CostModel = CostModel()
    description: str = ""

    def __post_init__(self) -> None:
        if self.plant not in ("chiller", "turbine"):
            raise MprosError(f"unknown scenario plant {self.plant!r}")
        if not self.faults:
            raise MprosError(f"scenario {self.name!r} needs at least one fault")
        if not 0 <= self.onset < self.failure_time:
            raise MprosError("need 0 <= onset < failure_time")
        if self.duration < self.failure_time:
            raise MprosError("duration must reach failure_time")
        if self.scan_period <= 0 or self.n_samples < 1024:
            raise MprosError("need scan_period > 0 and n_samples >= 1024")

    def quick(self) -> "ScenarioSpec":
        """A cheap profile of this scenario for CI and goldens.

        Same faults, same plant, same cost *shape* — but a compressed
        timeline and shorter vibration blocks, with the cost model's
        lead margin rescaled to the new onset→failure window so the
        cost semantics survive the compression.
        """
        scale = 1200.0 / (self.failure_time - self.onset)
        return dataclasses.replace(
            self,
            name=f"{self.name}-quick",
            onset=120.0,
            failure_time=1320.0,
            duration=1440.0,
            scan_period=120.0,
            n_samples=32768,
            healthy_controls=1,
            cost_model=dataclasses.replace(
                self.cost_model,
                lead_margin=max(120.0, self.cost_model.lead_margin * scale),
            ),
        )

    def build_simulator(self, rng: np.random.Generator):
        """The plant simulator for one run."""
        if self.plant == "turbine":
            return TurbineSimulator(rng=rng)
        return ChillerSimulator(rng=rng)

    def build_sources(self) -> list[KnowledgeSource]:
        """The plant's knowledge-source stack (fresh per run)."""
        if self.plant == "turbine":
            return [
                DliExpertSystem(),
                FuzzyDiagnostics.for_turbine(history_dt=self.scan_period),
                SbfrKnowledgeSource(watches=default_turbine_watches()),
            ]
        return [
            DliExpertSystem(),
            FuzzyDiagnostics(history_dt=self.scan_period),
            SbfrKnowledgeSource(),
        ]

    def build_fusion(self) -> KnowledgeFusionEngine:
        """The plant's fusion engine (fresh per run)."""
        if self.plant == "turbine":
            return KnowledgeFusionEngine(default_turbine_groups())
        return KnowledgeFusionEngine(default_chiller_groups())


def chiller_scenario() -> ScenarioSpec:
    """The paper's chilled-water prototype as a benchmark scenario."""
    return ScenarioSpec(
        name="chiller",
        plant="chiller",
        faults=(
            FaultKind.MOTOR_IMBALANCE,
            FaultKind.BEARING_WEAR,
            FaultKind.REFRIGERANT_LEAK,
            FaultKind.CONDENSER_FOULING,
            FaultKind.OIL_PRESSURE_LOW,
        ),
        description="centrifugal chiller drive train + refrigeration cycle",
    )


def turbine_scenario_spec() -> ScenarioSpec:
    """The gas-turbine CODLAG propulsion plant scenario."""
    return ScenarioSpec(
        name="turbine",
        plant="turbine",
        faults=(
            FaultKind.COMPRESSOR_FOULING,
            FaultKind.FUEL_METERING_DRIFT,
            FaultKind.TURBINE_BLADE_EROSION,
            FaultKind.OIL_PRESSURE_LOW,
            FaultKind.BEARING_WEAR,
        ),
        description="CODLAG gas-turbine shaft train, gas-path decay modes",
    )


#: Registered benchmark scenarios, by name.  ``-quick`` variants are
#: derived on demand by :func:`get_scenario`.
_REGISTRY: dict[str, object] = {
    "chiller": chiller_scenario,
    "turbine": turbine_scenario_spec,
}


def scenario_names() -> tuple[str, ...]:
    """The registered scenario names, stable order."""
    return tuple(sorted(_REGISTRY))


def get_scenario(name: str, quick: bool = False) -> ScenarioSpec:
    """Look up a registered scenario (optionally its quick profile)."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise MprosError(
            f"unknown scenario {name!r}; know {sorted(_REGISTRY)}"
        ) from None
    spec = factory()  # type: ignore[operator]
    return spec.quick() if quick else spec


def _run_once(
    spec: ScenarioSpec,
    fault: FaultKind | None,
    rng: np.random.Generator,
) -> RunScore:
    """Grow one fault (or run one healthy control) and score the run."""
    sim = spec.build_simulator(rng)
    if fault is not None:
        sim.inject(
            progressive(
                fault, onset=spec.onset, end=spec.failure_time, shape="linear"
            )
        )
    sources = spec.build_sources()
    engine = spec.build_fusion()
    truth_id = fault.condition_id if fault is not None else ""
    detections: dict[str, float] = {}
    ttf_errors: list[float] = []
    history: list[dict[str, float]] = []
    obj_id = f"obj:score-{spec.plant}"
    t = 0.0
    while t < spec.duration:
        t += spec.scan_period
        sim.step(spec.scan_period)
        process = sim.sample_process().values
        history.append(process)
        ctx = SourceContext(
            sensed_object_id=obj_id,
            timestamp=t,
            waveform=sim.sample_vibration(spec.n_samples),
            sample_rate=sim.vibration.sample_rate,
            process=process,
            kinematics=sim.config.kinematics,
            history=history[-16:],
            dc_id="dc:score",
        )
        for source in sources:
            for report in source.analyze(ctx):
                engine.ingest(report)
                cond = report.machine_condition_id
                if cond not in detections:
                    detections[cond] = t
        # RUL tracking: compare the fused TTF estimate against the true
        # remaining life while the fault is still growing.
        if truth_id in detections and t < spec.failure_time:
            est = engine.time_to_failure(obj_id, truth_id, probability=0.5, now=t)
            actual = spec.failure_time - t
            if math.isfinite(est) and actual > 0:
                ttf_errors.append(abs(est - actual) / actual)
    ttf_rel_error = (
        sum(ttf_errors) / len(ttf_errors) if ttf_errors else math.nan
    )
    ttf_alpha = (
        sum(1.0 for e in ttf_errors if e <= 1.0) / len(ttf_errors)
        if ttf_errors else math.nan
    )
    return score_run(
        fault=truth_id,
        failure_time=spec.failure_time,
        onset=spec.onset,
        detections=detections,
        model=spec.cost_model,
        ttf_rel_error=ttf_rel_error,
        ttf_alpha_accuracy=ttf_alpha,
    )


def run_scenario_suite(
    spec: ScenarioSpec,
    seed: int = 0,
    n_resamples: int = 2000,
) -> ScenarioScorecard:
    """Run every fault in ``spec`` plus healthy controls; score the lot.

    RNG streams derive from ``seed`` per run (tagged by fault name /
    control index), so adding a fault to the spec does not perturb the
    other runs' streams — scorecards stay comparable across spec
    growth.
    """
    root = make_rng(seed)
    runs: list[RunScore] = []
    for fault in spec.faults:
        runs.append(
            _run_once(spec, fault, derive_rng(root, "fault", fault.value))
        )
    for i in range(spec.healthy_controls):
        runs.append(_run_once(spec, None, derive_rng(root, "healthy", i)))
    return score_scenario(
        scenario=spec.name,
        plant=spec.plant,
        seed=seed,
        runs=runs,
        model=spec.cost_model,
        rng=derive_rng(root, "bootstrap"),
        n_resamples=n_resamples,
    )
