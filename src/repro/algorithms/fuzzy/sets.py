"""Fuzzy membership functions and linguistic variables."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.common.errors import MprosError


class MembershipFunction:
    """Base: maps crisp values to membership degrees in [0, 1]."""

    def __call__(self, x: float | np.ndarray) -> float | np.ndarray:  # pragma: no cover
        raise NotImplementedError


def _ramps(
    x: float | np.ndarray, a: float, b: float, c: float, d: float, zero_outside: bool
) -> float | np.ndarray:
    """``clip(min(rise a→b, fall c→d), 0, 1)``; a zero-width ramp is 1.

    Plain numbers take a float path that returns the same bits as the
    array path (NaN and signed zeros included) without numpy's per-call
    overhead: rule evaluation calls this dozens of times per scan.
    """
    if isinstance(x, (int, float)):
        x = float(x)
        if zero_outside and (x < a or x > d):
            return 0.0
        left = (x - a) / max(b - a, 1e-300) if b > a else 1.0
        right = (d - x) / max(d - c, 1e-300) if d > c else 1.0
        if left != left or right != right:
            return math.nan
        out = left if left < right else right
        return 0.0 if out < 0.0 else 1.0 if out > 1.0 else float(out)
    x = np.asarray(x, dtype=np.float64)
    left = np.where(b > a, (x - a) / max(b - a, 1e-300), 1.0)
    right = np.where(d > c, (d - x) / max(d - c, 1e-300), 1.0)
    out = np.clip(np.minimum(left, right), 0.0, 1.0)
    if zero_outside:
        out = np.where((x < a) | (x > d), 0.0, out)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Triangle(MembershipFunction):
    """Triangular MF with feet at ``a``/``c`` and apex at ``b``."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if not self.a <= self.b <= self.c:
            raise MprosError(f"need a <= b <= c, got ({self.a}, {self.b}, {self.c})")

    def __call__(self, x: float | np.ndarray) -> float | np.ndarray:
        return _ramps(x, self.a, self.b, self.b, self.c, zero_outside=False)


@dataclass(frozen=True)
class Trapezoid(MembershipFunction):
    """Trapezoidal MF: feet a/d, plateau b..c.  Open-ended shoulders
    are expressed with a == b (left shoulder) or c == d (right)."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        if not self.a <= self.b <= self.c <= self.d:
            raise MprosError(f"need a <= b <= c <= d, got {(self.a, self.b, self.c, self.d)}")

    def __call__(self, x: float | np.ndarray) -> float | np.ndarray:
        # Outside [a, d] membership is zero even for degenerate ramps.
        return _ramps(x, self.a, self.b, self.c, self.d, zero_outside=True)


@dataclass(frozen=True)
class Gaussian(MembershipFunction):
    """Gaussian MF centred at ``mu`` with width ``sigma``."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise MprosError(f"sigma must be positive, got {self.sigma}")

    def __call__(self, x: float | np.ndarray) -> float | np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.exp(-0.5 * ((x - self.mu) / self.sigma) ** 2)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class LinguisticVariable:
    """A named crisp quantity with linguistic terms.

    >>> sh = LinguisticVariable("superheat_c", {
    ...     "normal": Triangle(2.0, 4.5, 7.0),
    ...     "high": Trapezoid(6.0, 10.0, 50.0, 50.0),
    ... })
    >>> sh.membership("high", 12.0)
    1.0
    """

    name: str
    terms: Mapping[str, MembershipFunction]

    def __post_init__(self) -> None:
        if not self.name or not self.terms:
            raise MprosError("linguistic variable needs a name and terms")

    def membership(self, term: str, x: float) -> float:
        """Degree to which ``x`` is ``term``."""
        try:
            mf = self.terms[term]
        except KeyError:
            raise MprosError(f"{self.name!r} has no term {term!r}") from None
        return float(mf(x))
