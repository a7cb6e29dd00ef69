"""Cost/utility-weighted prognostic scoring (§9 grown into a harness).

The paper's validation question — "how are you going to prove that your
system does what you say it does?" — is answered per scenario with
*decision-weighted* metrics rather than raw detection counts: a CBM
prediction is worth exactly the maintenance cost it avoids.  The cost
model follows the prognostic-scoring literature (Kamariotis et al.,
arXiv 2306.03759): a detection early enough to schedule work costs a
preventive action; a missed or too-late call costs the (much larger)
corrective repair; a false alarm costs an unneeded inspection.

All aggregate statistics carry seeded bootstrap confidence intervals so
two scorecards can be compared without pretending the point estimates
are exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from repro.common.errors import MprosError
from repro.protocol.canonical import FLOAT_DECIMALS


@dataclass(frozen=True)
class CostModel:
    """Maintenance economics for one plant scenario.

    Costs are in arbitrary consistent units (think "one preventive
    work order" = 1.0).  ``lead_margin`` is the warning time needed to
    actually schedule preventive work: detections with less lead time
    only partially avoid the corrective repair.
    """

    preventive_cost: float = 1.0
    corrective_cost: float = 5.0
    false_alarm_cost: float = 0.5
    lead_margin: float = 1800.0

    def __post_init__(self) -> None:
        if self.preventive_cost < 0 or self.false_alarm_cost < 0:
            raise MprosError("costs must be non-negative")
        if self.corrective_cost < self.preventive_cost:
            raise MprosError(
                "corrective repair cannot be cheaper than preventive work"
            )
        if self.lead_margin <= 0:
            raise MprosError("lead_margin must be positive")


def maintenance_cost(lead_time: float, model: CostModel) -> float:
    """Expected maintenance cost of one run given its warning lead time.

    Monotone non-increasing in ``lead_time``: a missed or too-late call
    (``lead_time`` <= 0 or NaN) costs the corrective repair; a call
    with at least ``lead_margin`` of warning costs the preventive
    action; in between, the avoided cost scales linearly with the
    fraction of the margin available (a 10-minute warning lets you shed
    load and stage parts even if you cannot fully plan the job).
    """
    if math.isnan(lead_time) or lead_time <= 0:
        return model.corrective_cost
    if lead_time >= model.lead_margin:
        return model.preventive_cost
    frac = lead_time / model.lead_margin
    return model.corrective_cost + frac * (model.preventive_cost - model.corrective_cost)


def timeliness(lead_time: float, horizon: float) -> float:
    """Timeliness-weighted detection credit in [0, 1].

    1.0 = detected with at least ``horizon`` of warning; 0.0 = missed
    or detected at/after failure; linear in between.  ``horizon`` is
    normally the scenario's onset→failure window, so a detection at
    fault onset scores 1.0 (the best physically possible).
    """
    if horizon <= 0:
        raise MprosError("horizon must be positive")
    if not math.isfinite(lead_time) or lead_time <= 0:
        return 0.0
    return min(1.0, lead_time / horizon)


def bootstrap_ci(
    values: list[float] | np.ndarray,
    rng: np.random.Generator,
    n_resamples: int = 2000,
    alpha: float = 0.05,
) -> tuple[float, float]:
    """Percentile bootstrap CI for the mean of ``values``.

    Vectorized: one ``(n_resamples, n)`` index draw, one gather, one
    row-mean — no Python-level resample loop.  Degenerate inputs
    (empty, or a single value) return a zero-width interval.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return (math.nan, math.nan)
    if arr.size == 1:
        v = float(arr[0])
        return (v, v)
    idx = rng.integers(0, arr.size, size=(n_resamples, arr.size))
    means = arr[idx].mean(axis=1)
    lo, hi = np.quantile(means, [alpha / 2.0, 1.0 - alpha / 2.0])
    return (float(lo), float(hi))


@dataclass(frozen=True)
class RunScore:
    """One scenario run distilled into its scored facts.

    ``fault`` is the ground-truth condition id (empty for a healthy
    control).  ``lead_time`` is failure time minus first correct
    detection (−inf when never detected).  ``false_alarm_conditions``
    are distinct *incorrect* condition ids the stack reported.
    """

    fault: str
    detected: bool
    lead_time: float
    cost: float
    timeliness: float
    false_alarm_conditions: tuple[str, ...] = ()
    ttf_rel_error: float = math.nan
    #: Fraction of post-detection TTF estimates within 2x of the true
    #: remaining life (the bounded "alpha accuracy" of the prognostic
    #: literature; raw relative error explodes when an estimate is off
    #: by orders of magnitude, this stays in [0, 1]).
    ttf_alpha_accuracy: float = math.nan

    @property
    def healthy(self) -> bool:
        """Was this a healthy-control run?"""
        return not self.fault


def score_run(
    fault: str,
    failure_time: float,
    onset: float,
    detections: dict[str, float],
    model: CostModel,
    ttf_rel_error: float = math.nan,
    ttf_alpha_accuracy: float = math.nan,
) -> RunScore:
    """Score one run from its (condition id → first report time) map.

    Order-invariant by construction: only the *earliest* report time
    per condition enters, so the same reports in any order score
    identically.  For a faulty run the lead time is measured against
    ``failure_time``; every other reported condition is a false alarm.
    For a healthy run (empty ``fault``) every reported condition is a
    false alarm and the run costs only the false-alarm charges.
    """
    false_ids = tuple(sorted(c for c in detections if c != fault))
    fa_cost = model.false_alarm_cost * len(false_ids)
    if not fault:
        return RunScore(
            fault="",
            detected=False,
            lead_time=math.nan,
            cost=fa_cost,
            timeliness=math.nan,
            false_alarm_conditions=false_ids,
        )
    first = detections.get(fault, math.inf)
    lead = failure_time - first
    horizon = failure_time - onset
    return RunScore(
        fault=fault,
        detected=math.isfinite(first),
        lead_time=lead if math.isfinite(first) else -math.inf,
        cost=maintenance_cost(lead if math.isfinite(first) else -math.inf, model)
        + fa_cost,
        timeliness=timeliness(lead, horizon),
        false_alarm_conditions=false_ids,
        ttf_rel_error=ttf_rel_error,
        ttf_alpha_accuracy=ttf_alpha_accuracy,
    )


@dataclass(frozen=True)
class ScenarioScorecard:
    """The per-scenario benchmark result (one row of the suite)."""

    scenario: str
    plant: str
    seed: int
    cost_model: CostModel
    runs: tuple[RunScore, ...]
    # Aggregates (computed by score_scenario, pinned for the golden).
    detection_rate: float = 0.0
    mean_lead_time: float = math.nan
    mean_timeliness: float = 0.0
    expected_cost: float = 0.0
    cost_ci: tuple[float, float] = (math.nan, math.nan)
    timeliness_ci: tuple[float, float] = (math.nan, math.nan)
    false_alarm_count: int = 0
    false_alarm_cost: float = 0.0
    mean_ttf_rel_error: float = math.nan
    mean_ttf_alpha_accuracy: float = math.nan

    def to_dict(self) -> dict:
        """JSON-ready dict with floats rounded for byte stability."""

        def r(x: float) -> float:
            if not math.isfinite(x):
                # JSON has no inf/nan; encode as None for portability.
                return None  # type: ignore[return-value]
            return round(float(x), FLOAT_DECIMALS)

        return {
            "scenario": self.scenario,
            "plant": self.plant,
            "seed": self.seed,
            "cost_model": {
                "preventive_cost": r(self.cost_model.preventive_cost),
                "corrective_cost": r(self.cost_model.corrective_cost),
                "false_alarm_cost": r(self.cost_model.false_alarm_cost),
                "lead_margin": r(self.cost_model.lead_margin),
            },
            "detection_rate": r(self.detection_rate),
            "mean_lead_time": r(self.mean_lead_time),
            "mean_timeliness": r(self.mean_timeliness),
            "expected_cost": r(self.expected_cost),
            "cost_ci": [r(self.cost_ci[0]), r(self.cost_ci[1])],
            "timeliness_ci": [r(self.timeliness_ci[0]), r(self.timeliness_ci[1])],
            "false_alarm_count": self.false_alarm_count,
            "false_alarm_cost": r(self.false_alarm_cost),
            "mean_ttf_rel_error": r(self.mean_ttf_rel_error),
            "mean_ttf_alpha_accuracy": r(self.mean_ttf_alpha_accuracy),
            "runs": [
                {
                    "fault": run.fault,
                    "detected": run.detected,
                    "lead_time": r(run.lead_time),
                    "cost": r(run.cost),
                    "timeliness": r(run.timeliness),
                    "false_alarms": list(run.false_alarm_conditions),
                    "ttf_rel_error": r(run.ttf_rel_error),
                    "ttf_alpha_accuracy": r(run.ttf_alpha_accuracy),
                }
                for run in self.runs
            ],
        }

    def canonical_json(self) -> str:
        """Byte-stable JSON document for golden-master pinning."""
        return json.dumps(
            self.to_dict(), indent=2, sort_keys=True, ensure_ascii=True
        ) + "\n"

    def jsonl_line(self) -> str:
        """One compact JSON line (for ``mpros score --jsonl``)."""
        return json.dumps(
            self.to_dict(), sort_keys=True, ensure_ascii=True,
            separators=(",", ":"),
        )

    def to_markdown(self) -> str:
        """Scorecard as a review-ready markdown section."""

        def f(x: float, digits: int = 2) -> str:
            if x is None or not math.isfinite(x):
                return "—"
            return f"{x:.{digits}f}"

        lines = [
            f"### Scenario `{self.scenario}` ({self.plant} plant, seed {self.seed})",
            "",
            f"- detection rate: **{f(self.detection_rate)}**"
            f" · mean lead: **{f(self.mean_lead_time, 0)} s**"
            f" · mean timeliness: **{f(self.mean_timeliness)}**",
            f"- expected cost/run: **{f(self.expected_cost)}**"
            f" (95% CI {f(self.cost_ci[0])}..{f(self.cost_ci[1])})"
            f" · false alarms: {self.false_alarm_count}"
            f" (cost {f(self.false_alarm_cost)})",
            f"- TTF: relative error {f(self.mean_ttf_rel_error)}"
            f" · alpha accuracy (within 2x) {f(self.mean_ttf_alpha_accuracy)}",
            "",
            "| run | detected | lead (s) | cost | timeliness | false alarms |",
            "|---|---|---|---|---|---|",
        ]
        for run in self.runs:
            label = run.fault if run.fault else "(healthy control)"
            lines.append(
                f"| {label} | {'yes' if run.detected else 'no'} "
                f"| {f(run.lead_time, 0)} | {f(run.cost)} "
                f"| {f(run.timeliness)} | {len(run.false_alarm_conditions)} |"
            )
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        """One line for harness output."""
        lead = (
            "—" if not math.isfinite(self.mean_lead_time)
            else f"{self.mean_lead_time:.0f}s"
        )
        return (
            f"{self.scenario}: detection {self.detection_rate:.2f}, "
            f"lead {lead}, timeliness {self.mean_timeliness:.2f}, "
            f"cost {self.expected_cost:.2f} "
            f"[{self.cost_ci[0]:.2f}, {self.cost_ci[1]:.2f}], "
            f"{self.false_alarm_count} false alarm(s)"
        )


def score_scenario(
    scenario: str,
    plant: str,
    seed: int,
    runs: list[RunScore],
    model: CostModel,
    rng: np.random.Generator,
    n_resamples: int = 2000,
) -> ScenarioScorecard:
    """Aggregate per-run scores into the scenario scorecard.

    ``expected_cost`` is the mean per-run cost over *all* runs (faulty
    runs carry their maintenance cost, healthy controls their
    false-alarm charges), so a perfect stack — every fault detected
    with full margin, zero false alarms — scores exactly
    ``model.preventive_cost`` on an all-faulty suite.
    """
    if not runs:
        raise MprosError("cannot score an empty run list")
    # Deterministic aggregation order regardless of caller ordering.
    ordered = sorted(runs, key=lambda run: (run.fault, run.lead_time))
    faulty = [run for run in ordered if not run.healthy]
    detected = [run for run in faulty if run.detected]
    costs = [run.cost for run in ordered]
    tvals = [run.timeliness for run in faulty]
    fa_count = sum(len(run.false_alarm_conditions) for run in ordered)
    ttf_errs = [
        run.ttf_rel_error for run in faulty if math.isfinite(run.ttf_rel_error)
    ]
    ttf_alphas = [
        run.ttf_alpha_accuracy
        for run in faulty
        if math.isfinite(run.ttf_alpha_accuracy)
    ]
    cost_ci = bootstrap_ci(costs, rng, n_resamples=n_resamples)
    t_ci = (
        bootstrap_ci(tvals, rng, n_resamples=n_resamples)
        if tvals else (math.nan, math.nan)
    )
    return ScenarioScorecard(
        scenario=scenario,
        plant=plant,
        seed=seed,
        cost_model=model,
        runs=tuple(ordered),
        detection_rate=len(detected) / len(faulty) if faulty else 0.0,
        mean_lead_time=(
            sum(run.lead_time for run in detected) / len(detected)
            if detected else math.nan
        ),
        mean_timeliness=sum(tvals) / len(tvals) if tvals else 0.0,
        expected_cost=sum(costs) / len(costs),
        cost_ci=cost_ci,
        timeliness_ci=t_ci,
        false_alarm_count=fa_count,
        false_alarm_cost=model.false_alarm_cost * fa_count,
        mean_ttf_rel_error=(
            sum(ttf_errs) / len(ttf_errs) if ttf_errs else math.nan
        ),
        mean_ttf_alpha_accuracy=(
            sum(ttf_alphas) / len(ttf_alphas) if ttf_alphas else math.nan
        ),
    )
