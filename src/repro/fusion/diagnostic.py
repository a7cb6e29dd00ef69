"""Knowledge fusion for diagnostics (§5.3, §5.6).

"Diagnostic knowledge fusion generates a new fused belief whenever a
diagnostic report arrives for a suspect component.  This updates the
belief for that suspect component and for every other failure in the
logical group for that component.  It also updates the belief of
'unknown' failure for that logical group for that component."

State is kept per (sensed object, logical group): the Dempster-Shafer
orthogonal sum of every report received so far, discounted by source
believability where available.

The running state lives in the bitmask representation
(:class:`~repro.fusion.dempster_shafer.BitMass`) and is updated
*incrementally* — one :func:`combine_incremental` per report, never a
re-fold over report history.  The discounted evidence of every report
is retained so :meth:`DiagnosticFusion.full_recompute` can replay the
whole history through the frozenset oracle and certify the fast path.
"""

from __future__ import annotations

from repro.common.errors import FusionError
from repro.common.ids import ObjectId
from repro.fusion.dempster_shafer import (
    BitMass,
    MassFunction,
    bit_frame,
    combine,
    combine_incremental,
    conflict,
)
from repro.fusion.groups import UNKNOWN, GroupRegistry, LogicalGroup
from repro.protocol.report import FailurePredictionReport


class FusedDiagnosis:
    """The fused state of one logical group on one sensed object.

    The state is pinned at construction — the post-combine mass plus
    its severity, count and conflict — and the per-condition views
    (``beliefs``, ``plausibilities``, ``unknown``) are computed from
    that mass on first read.  A diagnosis read long after its own
    ingest still reports the state as of that ingest, because
    combination builds a new mass rather than updating the pinned one.

    Attributes
    ----------
    sensed_object_id / group_name:
        Which machine and which logical failure group.
    beliefs:
        Bel(condition) per condition in the group — the fused support
        committed to each specific failure.
    plausibilities:
        Pl(condition) per condition — the support not contradicting it.
    unknown:
        Mass on "some failure in this group we have not enumerated"
        plus total ignorance (Θ), the §5.6 "belief of unknown failure".
    severity:
        Max severity reported so far for any condition in the group.
    report_count:
        Number of reports fused into this state.
    conflict:
        The Dempster-Shafer conflict K of the *latest* combination —
        how much of the incoming report's mass contradicted the fused
        state (0 = purely reinforcing, →1 = purely conflicting).  This
        is the quantitative form of §3.2's "some conflicting and some
        reinforcing".
    """

    __slots__ = (
        "sensed_object_id",
        "group_name",
        "severity",
        "report_count",
        "conflict",
        "_mass",
        "_conditions",
        "_beliefs",
        "_plausibilities",
        "_unknown",
    )

    def __init__(
        self,
        sensed_object_id: ObjectId,
        group: LogicalGroup,
        mass: BitMass | MassFunction | None,
        severity: float = 0.0,
        report_count: int = 0,
        conflict: float = 0.0,
    ) -> None:
        self.sensed_object_id = sensed_object_id
        self.group_name = group.name
        self.severity = severity
        self.report_count = report_count
        self.conflict = conflict
        self._mass = mass
        self._conditions = group.conditions
        self._beliefs: dict[ObjectId, float] | None = None
        self._plausibilities: dict[ObjectId, float] | None = None
        self._unknown: float | None = None

    @property
    def beliefs(self) -> dict[ObjectId, float]:
        if self._beliefs is None:
            if self._mass is None:
                self._beliefs = {c: 0.0 for c in self._conditions}
            else:
                self._beliefs = {c: self._mass.belief(c) for c in self._conditions}
        return self._beliefs

    @property
    def plausibilities(self) -> dict[ObjectId, float]:
        if self._plausibilities is None:
            if self._mass is None:
                self._plausibilities = {c: 1.0 for c in self._conditions}
            else:
                self._plausibilities = {
                    c: self._mass.plausibility(c) for c in self._conditions
                }
        return self._plausibilities

    @property
    def unknown(self) -> float:
        if self._unknown is None:
            # "Unknown" per §5.6: explicit UNKNOWN support plus ignorance (Θ).
            self._unknown = (
                1.0 if self._mass is None else self._mass.plausibility(UNKNOWN)
            )
        return self._unknown

    def _fields(self) -> tuple:
        return (
            self.sensed_object_id,
            self.group_name,
            self.beliefs,
            self.plausibilities,
            self.unknown,
            self.severity,
            self.report_count,
            self.conflict,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FusedDiagnosis):
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"FusedDiagnosis{self._fields()!r}"

    def snapshot_entry(self) -> dict:
        """This state as one ``"diagnostic"`` entry of a fused snapshot
        (:meth:`~repro.fusion.engine.KnowledgeFusionEngine.fused_snapshot`)."""
        return {
            "beliefs": dict(self.beliefs),
            "plausibilities": dict(self.plausibilities),
            "unknown": self.unknown,
            "severity": self.severity,
            "report_count": self.report_count,
            "conflict": self.conflict,
        }

    def ranked(self) -> list[tuple[ObjectId, float]]:
        """Conditions sorted by fused belief, strongest first."""
        return sorted(self.beliefs.items(), key=lambda kv: -kv[1])

    def top(self) -> tuple[ObjectId, float] | None:
        """The strongest suspect condition, if any evidence exists."""
        ranked = self.ranked()
        if not ranked or ranked[0][1] <= 0.0:
            return None
        return ranked[0]


def discounted_support(
    group: LogicalGroup, condition: ObjectId, belief: float, believability: float = 1.0
) -> MassFunction:
    """Convert one diagnostic report into a mass function on the group
    frame, applying Shafer discounting by the source's believability.

    A report (condition, belief b) from a source with believability α
    becomes m({condition}) = α·b with the rest on Θ — exactly the
    "believability factors" treatment of §6.1.
    """
    if not 0.0 <= believability <= 1.0:
        raise FusionError(f"believability must be in [0, 1], got {believability}")
    if condition not in group:
        raise FusionError(f"condition {condition!r} is not in group {group.name!r}")
    return MassFunction(group.frame, {condition: belief * believability})


class DiagnosticFusion:
    """Per-(object, group) Dempster-Shafer accumulation of reports.

    Parameters
    ----------
    registry:
        Logical-group registry mapping machine conditions to groups.
    believability:
        Optional mapping ``knowledge_source_id -> α`` used to discount
        each source's reports (defaults to 1.0, full trust).
    """

    def __init__(
        self,
        registry: GroupRegistry,
        believability: dict[ObjectId, float] | None = None,
    ) -> None:
        self._registry = registry
        self._believability = dict(believability or {})
        for source, alpha in self._believability.items():
            if not 0.0 <= alpha <= 1.0:
                raise FusionError(
                    f"believability must be in [0, 1], got {alpha} for {source!r}"
                )
        #: The pinned fused state per key; each ingest replaces it.
        self._state: dict[tuple[ObjectId, str], FusedDiagnosis] = {}
        #: Retained discounted evidence per key — the oracle's input.
        self._history: dict[tuple[ObjectId, str], list[tuple[ObjectId, float]]] = {}
        #: Monotone revision counter gating the suspects cache.
        self._revision = 0
        self._suspects_rev = -1
        self._suspects_all: list[tuple[ObjectId, ObjectId, float]] = []

    # -- intake ----------------------------------------------------------
    def ingest(self, report: FailurePredictionReport) -> FusedDiagnosis:
        """Fuse one diagnostic report; returns the updated group state."""
        group = self._registry.group_of(report.machine_condition_id)
        obj = report.sensed_object_id
        key = (obj, group.name)
        belief = report.belief * self._believability.get(report.knowledge_source_id, 1.0)
        evidence = BitMass.simple_support(
            bit_frame(group.frame), report.machine_condition_id, belief
        )
        prior = self._state.get(key)
        if prior is None:
            fused = FusedDiagnosis(obj, group, evidence, max(0.0, report.severity), 1)
        else:
            mass = combine_incremental(prior._mass, evidence)
            fused = FusedDiagnosis(
                obj,
                group,
                mass,
                max(prior.severity, report.severity),
                prior.report_count + 1,
                mass.conflict_k,
            )
        self._state[key] = fused
        self._history.setdefault(key, []).append((report.machine_condition_id, belief))
        self._revision += 1
        return fused

    # -- queries -----------------------------------------------------------
    def _resolve_group(self, group_name: str) -> LogicalGroup:
        """Look up a registered group, reconstructing implicit
        catch-all singleton groups (named ``auto:<condition>``)."""
        if group_name.startswith("auto:"):
            return LogicalGroup(group_name, frozenset((group_name[5:],)))
        return self._registry.get(group_name)

    def state(self, sensed_object_id: ObjectId, group_name: str) -> FusedDiagnosis:
        """Current fused state for an (object, group) pair."""
        fused = self._state.get((sensed_object_id, group_name))
        if fused is None:
            return FusedDiagnosis(sensed_object_id, self._resolve_group(group_name), None)
        return fused

    def belief(self, sensed_object_id: ObjectId, condition: ObjectId) -> float:
        """Fused Bel(condition) on one sensed object (0.0 without evidence)."""
        group = self._registry.group_of(condition)
        return self.state(sensed_object_id, group.name).beliefs.get(condition, 0.0)

    def keys(self) -> list[tuple[ObjectId, str]]:
        """Every (object, group) pair with fused state, insertion order."""
        return list(self._state.keys())

    def states_for_object(self, sensed_object_id: ObjectId) -> list[FusedDiagnosis]:
        """All group states touched so far on one sensed object."""
        return [
            fused for (obj, _), fused in self._state.items() if obj == sensed_object_id
        ]

    def suspects(self, threshold: float = 0.5) -> list[tuple[ObjectId, ObjectId, float]]:
        """All (object, condition, belief) with fused belief ≥ threshold,
        strongest first — the raw material of the PDME's prioritized
        maintenance list.

        The full sorted candidate list is memoized per fusion revision
        (spatial correlation probes it once per ingested conclusion);
        only the threshold filter runs per call.
        """
        if self._suspects_rev != self._revision:
            found: list[tuple[ObjectId, ObjectId, float]] = []
            for (obj, _), fused in self._state.items():
                for c, belief in fused.beliefs.items():
                    found.append((obj, c, belief))
            found.sort(key=lambda t: -t[2])
            self._suspects_all = found
            self._suspects_rev = self._revision
        return [t for t in self._suspects_all if t[2] >= threshold]

    # -- oracle ------------------------------------------------------------
    def full_recompute(
        self, sensed_object_id: ObjectId, group_name: str
    ) -> FusedDiagnosis:
        """Replay the retained report history through the frozenset
        :class:`MassFunction` oracle and return the resulting state.

        This is the reference against which the incremental bitmask
        path is certified: for any (object, group) pair the snapshot
        returned here must match :meth:`state` to within float
        round-off (the property tests pin it to 1e-9).
        """
        group = self._resolve_group(group_name)
        key = (sensed_object_id, group.name)
        history = self._history.get(key)
        if not history:
            return self.state(sensed_object_id, group_name)
        acc: MassFunction | None = None
        last_k = 0.0
        for condition, belief in history:
            evidence = MassFunction(group.frame, {condition: belief})
            if acc is None:
                acc = evidence
            else:
                last_k = conflict(acc, evidence)
                acc = combine(acc, evidence)
        live = self._state[key]
        return FusedDiagnosis(
            sensed_object_id, group, acc, live.severity, live.report_count, last_k
        )

    def reset(self, sensed_object_id: ObjectId, group_name: str) -> None:
        """Forget fused state for an (object, group) pair (maintenance
        performed; evidence no longer applies)."""
        self._state.pop((sensed_object_id, group_name), None)
        self._history.pop((sensed_object_id, group_name), None)
        self._revision += 1
