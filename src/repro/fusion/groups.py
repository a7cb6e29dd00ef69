"""Logical failure groups (§5.3).

Plain Dempster-Shafer over one flat frame "assumes mutual exclusivity
of failures ... However this is not the case in CBM; there can, in
fact, be several failures at one time, and two or more of them might be
independent of one another."  The paper's heuristic: partition machine
conditions into *logical groups* (electrical failures, lubricant
failures, ...).  Failures within a group "might be mistaken for one
another, so they are logically related and should share probabilities";
failures in different groups are fused independently, so concurrent
unrelated failures are both tracked at full strength.

Each group maintains its own D-S frame, with an explicit UNKNOWN
member standing for "a failure of this kind we have not enumerated".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

from repro.common.errors import FusionError
from repro.common.ids import ObjectId

#: Sentinel hypothesis representing "unknown failure in this group".
#: Distinct from D-S mass on Θ; mass on Θ is total ignorance, while the
#: group report of "unknown" aggregates Θ-mass per §5.6 ("updates the
#: belief of 'unknown' failure for that logical group").
UNKNOWN = "__unknown__"


@dataclass(frozen=True)
class LogicalGroup:
    """A named logical group of related machine conditions.

    Attributes
    ----------
    name:
        Group label, e.g. ``"electrical"`` or ``"lubricant"``.
    conditions:
        The machine-condition ids belonging to the group.
    """

    name: str
    conditions: frozenset[ObjectId]

    def __post_init__(self) -> None:
        if not self.name:
            raise FusionError("logical group needs a non-empty name")
        if not self.conditions:
            raise FusionError(f"logical group {self.name!r} needs at least one condition")
        if UNKNOWN in self.conditions:
            raise FusionError(f"{UNKNOWN!r} is reserved and cannot be a condition id")

    @cached_property
    def frame(self) -> frozenset[ObjectId]:
        """The D-S frame for this group: its conditions plus UNKNOWN
        (built on first use; every report on the group reuses it)."""
        return self.conditions | {UNKNOWN}

    def __contains__(self, condition: ObjectId) -> bool:
        return condition in self.conditions

    def __len__(self) -> int:
        return len(self.conditions)


@dataclass
class GroupRegistry:
    """The set of logical groups for one installation.

    Conditions not claimed by any registered group fall into an
    implicit catch-all group (one per condition) so that novel failure
    modes are still fusible rather than dropped.
    """

    _groups: dict[str, LogicalGroup] = field(default_factory=dict)
    _by_condition: dict[ObjectId, str] = field(default_factory=dict)

    def add(self, name: str, conditions: Iterable[ObjectId]) -> LogicalGroup:
        """Register a group; conditions must not already be claimed."""
        if name in self._groups:
            raise FusionError(f"logical group {name!r} already registered")
        group = LogicalGroup(name, frozenset(conditions))
        clash = {c: self._by_condition[c] for c in group.conditions if c in self._by_condition}
        if clash:
            raise FusionError(f"conditions already grouped elsewhere: {clash}")
        self._groups[name] = group
        for c in group.conditions:
            self._by_condition[c] = name
        return group

    def group_of(self, condition: ObjectId) -> LogicalGroup:
        """The group a condition belongs to (implicit singleton if new)."""
        name = self._by_condition.get(condition)
        if name is not None:
            return self._groups[name]
        # Implicit catch-all: a singleton group named after the condition.
        return LogicalGroup(f"auto:{condition}", frozenset((condition,)))

    def get(self, name: str) -> LogicalGroup:
        """Look up a registered group by name."""
        try:
            return self._groups[name]
        except KeyError:
            raise FusionError(f"unknown logical group {name!r}") from None

    def groups(self) -> Iterator[LogicalGroup]:
        """Iterate over registered groups."""
        return iter(self._groups.values())

    def __len__(self) -> int:
        return len(self._groups)

    def __contains__(self, name: str) -> bool:
        return name in self._groups


def default_chiller_groups() -> GroupRegistry:
    """The logical groups for the centrifugal-chiller prototype.

    The paper names electrical and lubricant groups as examples; the
    rest follow the §3.3 FMEA's 12 candidate failure modes, organized
    by the confusability heuristic (conditions an analyst could mistake
    for one another share a group).
    """
    reg = GroupRegistry()
    reg.add(
        "electrical",
        [
            "mc:motor-rotor-bar",
            "mc:motor-stator-winding",
            "mc:motor-phase-imbalance",
        ],
    )
    reg.add(
        "lubricant",
        [
            "mc:oil-contamination",
            "mc:oil-pressure-low",
            "mc:oil-pump-wear",
        ],
    )
    reg.add(
        "rotating-mechanical",
        [
            "mc:motor-imbalance",
            "mc:shaft-misalignment",
            "mc:bearing-housing-looseness",
            "mc:bearing-wear",
        ],
    )
    reg.add(
        "transmission",
        [
            "mc:gear-tooth-wear",
            "mc:gear-mesh-misalignment",
        ],
    )
    reg.add(
        "refrigeration",
        [
            "mc:refrigerant-leak",
            "mc:condenser-fouling",
            "mc:evaporator-fouling",
            "mc:surge",
        ],
    )
    return reg


def default_turbine_groups() -> GroupRegistry:
    """The logical groups for the gas-turbine (CODLAG) domain.

    The gas-path decay modes (Anđelić et al.) are mutually confusable
    — all three shift EGT and fuel flow — so they share one D-S frame;
    the lubricant and drive-train modes keep the same confusability
    partitions they have on any geared machine.
    """
    reg = GroupRegistry()
    reg.add(
        "gas-path",
        [
            "mc:compressor-fouling",
            "mc:fuel-metering-drift",
            "mc:turbine-blade-erosion",
        ],
    )
    reg.add(
        "lubricant",
        [
            "mc:oil-contamination",
            "mc:oil-pressure-low",
            "mc:oil-pump-wear",
        ],
    )
    reg.add(
        "rotating-mechanical",
        [
            "mc:motor-imbalance",
            "mc:shaft-misalignment",
            "mc:bearing-housing-looseness",
            "mc:bearing-wear",
        ],
    )
    reg.add(
        "transmission",
        [
            "mc:gear-tooth-wear",
            "mc:gear-mesh-misalignment",
        ],
    )
    return reg
