"""PDME-resident diagnostics (§5.7).

"The PDME has the capability to host prognostic and diagnostic
algorithms.  Some reasons for placing the algorithms in the PDME rather
than the DC include: the algorithm requires data from widely separate
parts of the ship, the algorithm can reason from PDME resident
components (a model-based diagnostic and prognostic system, for
instance, might use only the OOSM) ... Currently, our Phase 1 system
does not place any diagnostic/prognostic algorithms in the PDME."

This is the Phase-2 realization: an analyzer that consumes *only* the
OOSM (structure + fused state) and emits secondary
§7 reports no single DC could produce:

* **root-cause promotion** — when flow reasoning traces a downstream
  symptom to an upstream source, reinforce the source diagnosis;
* **common-cause detection** — the same process fault appearing on
  machines in widely separate chillers points at shared supply
  (condenser water, power quality) rather than coincident local
  failures; a report is raised against the shared parent assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.ids import ObjectId
from repro.fusion.engine import KnowledgeFusionEngine
from repro.fusion.spatial import flow_contamination_candidates
from repro.oosm.model import ShipModel
from repro.oosm.query import system_of
from repro.protocol.prognostic import PrognosticVector
from repro.protocol.report import FailurePredictionReport

#: Process conditions whose simultaneous appearance on separate units
#: suggests a shared-supply cause, and the condition asserted on the
#: common parent.
COMMON_CAUSE_MAP: dict[str, str] = {
    "mc:condenser-fouling": "mc:cooling-water-supply-fouling",
    "mc:oil-pressure-low": "mc:oil-supply-degradation",
    "mc:motor-phase-imbalance": "mc:power-quality-degradation",
}


@dataclass
class ModelBasedDiagnostics:
    """The OOSM-only resident analyzer.

    Parameters
    ----------
    model / engine:
        The PDME's OOSM and fusion engine (its entire input surface).
    belief_floor:
        Fused belief below which a condition is not considered.
    min_units:
        Units that must share a condition before a common cause is
        suspected.
    """

    model: ShipModel
    engine: KnowledgeFusionEngine
    knowledge_source_id: ObjectId = "ks:pdme-model"
    belief_floor: float = 0.5
    min_units: int = 2
    _emitted: set[tuple[ObjectId, ObjectId]] = field(default_factory=set)

    def scan(self, now: float) -> list[FailurePredictionReport]:
        """One reasoning pass; returns new secondary reports.

        Each (object, condition) conclusion is emitted once per
        episode (re-armed by :meth:`reset`).
        """
        out: list[FailurePredictionReport] = []
        out.extend(self._root_causes(now))
        out.extend(self._common_causes(now))
        fresh = []
        for r in out:
            key = (r.sensed_object_id, r.machine_condition_id)
            if key in self._emitted:
                continue
            self._emitted.add(key)
            fresh.append(r)
        return fresh

    def reset(self) -> None:
        """Re-arm one-shot conclusions (e.g. after maintenance)."""
        self._emitted.clear()

    # -- analyses -----------------------------------------------------------
    def _root_causes(self, now: float) -> list[FailurePredictionReport]:
        reports = []
        for c in flow_contamination_candidates(
            self.model, self.engine, threshold=self.belief_floor
        ):
            reports.append(
                FailurePredictionReport(
                    knowledge_source_id=self.knowledge_source_id,
                    sensed_object_id=c.source,
                    machine_condition_id=c.source_condition,
                    severity=0.5,
                    belief=min(0.6, c.source_belief),
                    timestamp=now,
                    explanation=(
                        f"model-based: downstream {c.victim_condition} on "
                        f"{c.victim} is consistent with this source condition"
                    ),
                    recommendations="Treat the upstream source before the symptom.",
                )
            )
        return reports

    def _common_causes(self, now: float) -> list[FailurePredictionReport]:
        # Which units show which shared-supply conditions?
        by_condition: dict[str, set[ObjectId]] = {}
        for obj, condition, belief in self.engine.suspects(self.belief_floor):
            if condition in COMMON_CAUSE_MAP:
                by_condition.setdefault(condition, set()).add(obj)
        reports = []
        for condition, objects in by_condition.items():
            # "Widely separate": the units must live in different
            # immediate assemblies (different chillers).
            assemblies = set()
            for obj in objects:
                parents = self.model.related(obj, "part-of")
                assemblies.add(next(iter(parents)) if parents else obj)
            if len(assemblies) < self.min_units:
                continue
            # Raise the common-cause condition on the shared system.
            any_obj = next(iter(objects))
            parent = system_of(self.model, any_obj)
            reports.append(
                FailurePredictionReport(
                    knowledge_source_id=self.knowledge_source_id,
                    sensed_object_id=parent,
                    machine_condition_id=COMMON_CAUSE_MAP[condition],
                    severity=0.6,
                    belief=0.7,
                    timestamp=now,
                    explanation=(
                        f"model-based: {condition} fused on {len(assemblies)} "
                        f"separate units — shared-supply cause suspected"
                    ),
                    recommendations="Inspect the common supply system.",
                    prognostic=PrognosticVector.empty(),
                )
            )
        return reports


def attach_resident_analyzer(
    pdme, period: float = 300.0, kernel=None
) -> ModelBasedDiagnostics:
    """Create the analyzer and (optionally) schedule it on a kernel.

    Scanned conclusions are posted back into the OOSM through the
    normal §5.1 intake, so they fuse and display like any other
    knowledge source's reports.
    """
    analyzer = ModelBasedDiagnostics(pdme.model, pdme.engine)

    def run_scan() -> None:
        for report in analyzer.scan(kernel.now() if kernel else 0.0):
            try:
                pdme.submit(report)
            except Exception:  # pragma: no cover - §5.1 isolation
                pass
        if kernel is not None:
            kernel.schedule(period, run_scan)

    if kernel is not None:
        kernel.schedule(period, run_scan)
    analyzer.run_scan = run_scan  # type: ignore[attr-defined]
    return analyzer
