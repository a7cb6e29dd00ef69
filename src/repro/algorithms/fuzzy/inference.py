"""Mamdani inference with centroid defuzzification.

Rules are of the form::

    IF superheat IS high AND evap_pressure IS low
    THEN mc:refrigerant-leak severity IS severe

Firing strength is the min over antecedent memberships; per-condition
output fuzzy sets (severity terms over [0, 1]) are clipped at the rule
strength, aggregated by max, and the centroid of the aggregate is the
crisp severity.  The strongest single firing is kept as the belief.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.fuzzy.sets import LinguisticVariable, MembershipFunction, Triangle
from repro.common.errors import MprosError

#: Output severity terms on the unit interval.
SEVERITY_TERMS: dict[str, MembershipFunction] = {
    "slight": Triangle(0.0, 0.15, 0.35),
    "moderate": Triangle(0.25, 0.45, 0.65),
    "severe": Triangle(0.55, 0.8, 1.0),
}

_GRID = np.linspace(0.0, 1.0, 201)

#: Each severity term's membership over ``_GRID``, evaluated once.
_SEVERITY_ON_GRID: dict[str, np.ndarray] = {
    term: np.asarray(mf(_GRID)) for term, mf in SEVERITY_TERMS.items()
}


@dataclass(frozen=True)
class FuzzyRule:
    """One Mamdani rule.

    Attributes
    ----------
    antecedents:
        ``((variable_name, term), ...)`` — all must hold (AND/min).
    condition_id:
        The machine condition asserted.
    severity_term:
        Which output severity set the rule activates.
    """

    antecedents: tuple[tuple[str, str], ...]
    condition_id: str
    severity_term: str = "moderate"

    def __post_init__(self) -> None:
        if not self.antecedents:
            raise MprosError("rule needs at least one antecedent")
        if self.severity_term not in SEVERITY_TERMS:
            raise MprosError(f"unknown severity term {self.severity_term!r}")


@dataclass(frozen=True)
class FuzzyConclusion:
    """Aggregated inference output for one machine condition."""

    condition_id: str
    severity: float        # centroid-defuzzified, [0, 1]
    belief: float          # strongest firing strength
    fired_rules: int


class MamdaniEngine:
    """Evaluates a rulebase against crisp process readings."""

    def __init__(
        self, variables: dict[str, LinguisticVariable], rules: tuple[FuzzyRule, ...]
    ) -> None:
        self.variables = dict(variables)
        for rule in rules:
            for var, term in rule.antecedents:
                if var not in self.variables:
                    raise MprosError(f"rule references unknown variable {var!r}")
                if term not in self.variables[var].terms:
                    raise MprosError(f"variable {var!r} has no term {term!r}")
        self.rules = tuple(rules)

    def firing_strength(self, rule: FuzzyRule, readings: dict[str, float]) -> float:
        """Min over antecedent memberships; 0 if any input is missing
        (§5.1 tolerance: a rule simply cannot fire without its data)."""
        strength = 1.0
        for var, term in rule.antecedents:
            if var not in readings:
                return 0.0
            strength = min(strength, self.variables[var].membership(term, readings[var]))
            if strength == 0.0:
                return 0.0
        return strength

    def infer(
        self, readings: dict[str, float], activation_threshold: float = 0.05
    ) -> list[FuzzyConclusion]:
        """Run every rule; aggregate and defuzzify per condition."""
        clipped: dict[str, list[tuple[str, float]]] = {}
        strongest: dict[str, float] = {}
        fired: dict[str, int] = {}
        for rule in self.rules:
            s = self.firing_strength(rule, readings)
            if s < activation_threshold:
                continue
            clipped.setdefault(rule.condition_id, []).append((rule.severity_term, s))
            strongest[rule.condition_id] = max(strongest.get(rule.condition_id, 0.0), s)
            fired[rule.condition_id] = fired.get(rule.condition_id, 0) + 1
        out: list[FuzzyConclusion] = []
        for cond, activations in clipped.items():
            agg = np.zeros_like(_GRID)
            for term, s in activations:
                np.maximum(agg, np.minimum(_SEVERITY_ON_GRID[term], s), out=agg)
            mass = float(agg.sum())
            severity = float((agg * _GRID).sum() / mass) if mass > 0 else 0.0
            out.append(
                FuzzyConclusion(
                    condition_id=cond,
                    severity=severity,
                    belief=strongest[cond],
                    fired_rules=fired[cond],
                )
            )
        out.sort(key=lambda c: -c.belief)
        return out
