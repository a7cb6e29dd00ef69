"""Dempster-Shafer rules of evidence (§5.3).

"Dempster-Shafer theory is a calculus for qualifying beliefs using
numerical expressions."  A body of evidence is a *mass function*
assigning probability mass to subsets (focal elements) of a frame of
discernment Θ; mass on Θ itself is the "unknown" belief the paper
highlights as D-S's differentiating strength.

The worked example from §5.3 — m1(A)=0.40 combined with m2(B∨C)=0.75 —
yields m(A)≈14 %, m(B∨C)≈64 % and ≈21–22 % "assigned to unknown
possibilities"; :func:`combine` reproduces it exactly (the paper's 22 %
is 3/14 = 0.2142... rounded).

Two representations live here:

* :class:`MassFunction` — focal elements as frozensets.  Readable,
  validating, and the *oracle* for every equivalence claim.
* :class:`BitMass` over a :class:`BitFrame` — focal elements as integer
  bitmasks.  Set intersection is ``&``, subset is ``(a & ~b) == 0``,
  and :func:`combine_incremental` folds one new body of evidence into a
  running fused state without touching the report history.  This is the
  PDME fusion hot path at fleet scale.
"""

from __future__ import annotations

from itertools import product
from typing import Hashable, Iterable, Iterator, Mapping

from repro.common.errors import FusionError

Hypothesis = Hashable
FocalElement = frozenset

_EPS = 1e-12


class MassFunction:
    """A Dempster-Shafer basic probability assignment over a frame.

    Parameters
    ----------
    frame:
        The frame of discernment Θ — the exhaustive set of hypotheses
        (machine conditions) under consideration.
    masses:
        Mapping from focal element (any iterable of hypotheses, or a
        single hypothesis) to mass.  Masses must be non-negative and
        sum to ≤ 1; any deficit is assigned to Θ ("unknown").

    Examples
    --------
    >>> m = MassFunction({"A", "B", "C"}, {"A": 0.4})
    >>> round(m.unknown(), 2)
    0.6
    """

    __slots__ = ("_frame", "_masses")

    def __init__(
        self,
        frame: Iterable[Hypothesis],
        masses: Mapping[Hypothesis | Iterable[Hypothesis], float] | None = None,
    ) -> None:
        self._frame = frozenset(frame)
        if not self._frame:
            raise FusionError("frame of discernment must be non-empty")
        self._masses: dict[FocalElement, float] = {}
        total = 0.0
        if masses:
            for key, value in masses.items():
                elem = self._as_focal(key)
                if value < -_EPS:
                    raise FusionError(f"mass must be non-negative, got {value} for {set(elem)}")
                if value <= _EPS:
                    continue
                total += value
                self._masses[elem] = self._masses.get(elem, 0.0) + value
        if total > 1.0 + 1e-9:
            raise FusionError(f"masses sum to {total} > 1")
        residual = max(0.0, 1.0 - total)
        if residual > _EPS:
            self._masses[self._frame] = self._masses.get(self._frame, 0.0) + residual

    # -- helpers --------------------------------------------------------
    def _as_focal(self, key: Hypothesis | Iterable[Hypothesis]) -> FocalElement:
        if isinstance(key, (set, frozenset, tuple, list)):
            elem = frozenset(key)
        else:
            elem = frozenset((key,))
        if not elem:
            raise FusionError("empty focal element is not allowed (no mass on ∅)")
        extra = elem - self._frame
        if extra:
            raise FusionError(f"hypotheses {set(extra)} are outside the frame {set(self._frame)}")
        return elem

    # -- introspection ---------------------------------------------------
    @property
    def frame(self) -> frozenset:
        """The frame of discernment Θ."""
        return self._frame

    def focal_elements(self) -> Iterator[tuple[FocalElement, float]]:
        """Iterate (focal element, mass) pairs."""
        return iter(self._masses.items())

    def mass(self, key: Hypothesis | Iterable[Hypothesis]) -> float:
        """Mass assigned exactly to the given focal element."""
        return self._masses.get(self._as_focal(key), 0.0)

    def unknown(self) -> float:
        """Mass on Θ — the belief "assigned to unknown possibilities"."""
        return self._masses.get(self._frame, 0.0)

    def belief(self, key: Hypothesis | Iterable[Hypothesis]) -> float:
        """Bel(X) = Σ m(Y) over Y ⊆ X: total support committed to X."""
        target = self._as_focal(key)
        return sum(v for elem, v in self._masses.items() if elem <= target)

    def plausibility(self, key: Hypothesis | Iterable[Hypothesis]) -> float:
        """Pl(X) = Σ m(Y) over Y ∩ X ≠ ∅: mass not contradicting X."""
        target = self._as_focal(key)
        return sum(v for elem, v in self._masses.items() if elem & target)

    def pignistic(self) -> dict[Hypothesis, float]:
        """BetP: distribute each focal element's mass uniformly over its
        members — the standard decision-level flattening of a D-S state.
        """
        out: dict[Hypothesis, float] = {h: 0.0 for h in self._frame}
        for elem, v in self._masses.items():
            share = v / len(elem)
            for h in elem:
                out[h] += share
        return out

    def is_vacuous(self) -> bool:
        """True if all mass sits on Θ (no evidence at all)."""
        return abs(self.unknown() - 1.0) <= 1e-9

    def total(self) -> float:
        """Total mass (≈1 by construction; exposed for invariants)."""
        return sum(self._masses.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MassFunction):
            return NotImplemented
        if self._frame != other._frame:
            return False
        keys = set(self._masses) | set(other._masses)
        return all(
            abs(self._masses.get(k, 0.0) - other._masses.get(k, 0.0)) <= 1e-9 for k in keys
        )

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{{{','.join(sorted(map(str, e)))}}}:{v:.4f}"
            for e, v in sorted(self._masses.items(), key=lambda kv: -kv[1])
        )
        return f"MassFunction({parts})"


def conflict(m1: MassFunction, m2: MassFunction) -> float:
    """The D-S conflict K: total mass landing on ∅ when combining.

    K = Σ m1(X)·m2(Y) over X ∩ Y = ∅.  K = 1 means totally
    contradictory evidence (combination undefined).
    """
    if m1.frame != m2.frame:
        raise FusionError("cannot measure conflict across different frames")
    k = 0.0
    for (e1, v1), (e2, v2) in product(m1.focal_elements(), m2.focal_elements()):
        if not (e1 & e2):
            k += v1 * v2
    return k


def combine(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Dempster's rule of combination (normalized orthogonal sum).

    m(Z) = Σ_{X∩Y=Z} m1(X)·m2(Y) / (1 − K).

    Raises :class:`FusionError` on total conflict (K = 1).

    Examples
    --------
    The §5.3 worked example:

    >>> frame = {"A", "B", "C"}
    >>> m1 = MassFunction(frame, {"A": 0.40})
    >>> m2 = MassFunction(frame, {("B", "C"): 0.75})
    >>> fused = combine(m1, m2)
    >>> round(fused.mass("A"), 2), round(fused.mass(("B", "C")), 2)
    (0.14, 0.64)
    >>> 0.21 <= round(fused.unknown(), 2) <= 0.22
    True
    """
    if m1.frame != m2.frame:
        raise FusionError("cannot combine mass functions over different frames")
    acc: dict[FocalElement, float] = {}
    k = 0.0
    for (e1, v1), (e2, v2) in product(m1.focal_elements(), m2.focal_elements()):
        inter = e1 & e2
        w = v1 * v2
        if inter:
            acc[inter] = acc.get(inter, 0.0) + w
        else:
            k += w
    if k >= 1.0 - _EPS:
        raise FusionError("total conflict (K=1): evidence is contradictory")
    norm = 1.0 / (1.0 - k)
    return MassFunction(m1.frame, {elem: v * norm for elem, v in acc.items()})


def combine_many(masses: Iterable[MassFunction]) -> MassFunction:
    """Fold :func:`combine` over a sequence ("extended to handle any
    number of inputs", §1.1).  Dempster's rule is associative and
    commutative, so order does not matter.
    """
    it = iter(masses)
    try:
        acc = next(it)
    except StopIteration:
        raise FusionError("combine_many needs at least one mass function") from None
    for m in it:
        acc = combine(acc, m)
    return acc


def from_simple_support(
    frame: Iterable[Hypothesis], hypothesis: Hypothesis | Iterable[Hypothesis], belief: float
) -> MassFunction:
    """A simple support function: one report asserting ``hypothesis``
    with the §7 ``belief`` value; the rest goes to "unknown".
    """
    if not 0.0 <= belief <= 1.0:
        raise FusionError(f"belief must be in [0, 1], got {belief}")
    return MassFunction(frame, {hypothesis: belief} if belief > 0 else {})


# -- integer-bitmask representation (the fleet-scale fast path) ---------------

class BitFrame:
    """A frame of discernment with each hypothesis assigned a bit.

    Hypotheses are ordered deterministically (sorted by string form) so
    the same frame always produces the same bit layout regardless of
    construction order — bit-identical fused state across replays.
    """

    __slots__ = ("hypotheses", "full", "_bit")

    def __init__(self, hypotheses: Iterable[Hypothesis]) -> None:
        ordered = sorted(set(hypotheses), key=str)
        if not ordered:
            raise FusionError("frame of discernment must be non-empty")
        self.hypotheses: tuple[Hypothesis, ...] = tuple(ordered)
        self._bit: dict[Hypothesis, int] = {
            h: 1 << i for i, h in enumerate(ordered)
        }
        #: The Θ mask: every hypothesis bit set.
        self.full: int = (1 << len(ordered)) - 1

    def __len__(self) -> int:
        return len(self.hypotheses)

    def __contains__(self, hypothesis: Hypothesis) -> bool:
        return hypothesis in self._bit

    def bit(self, hypothesis: Hypothesis) -> int:
        """The single-bit mask of one hypothesis."""
        try:
            return self._bit[hypothesis]
        except KeyError:
            raise FusionError(
                f"hypothesis {hypothesis!r} is outside the frame"
            ) from None

    def mask(self, key: Hypothesis | Iterable[Hypothesis]) -> int:
        """Bitmask of a focal element (hypothesis or iterable of them)."""
        if isinstance(key, (set, frozenset, tuple, list)):
            out = 0
            for h in key:
                out |= self.bit(h)
            if out == 0:
                raise FusionError("empty focal element is not allowed (no mass on ∅)")
            return out
        return self.bit(key)

    def unmask(self, mask: int) -> frozenset:
        """The frozenset of hypotheses a bitmask stands for."""
        return frozenset(
            h for h, b in self._bit.items() if mask & b
        )


#: Memoized BitFrame per frozenset frame — groups are few and reused on
#: every report, so frame construction happens once per logical group.
_FRAME_CACHE: dict[frozenset, BitFrame] = {}


def bit_frame(frame: Iterable[Hypothesis]) -> BitFrame:
    """Get-or-create the shared :class:`BitFrame` for a frame."""
    key = frozenset(frame)
    cached = _FRAME_CACHE.get(key)
    if cached is None:
        cached = BitFrame(key)
        _FRAME_CACHE[key] = cached
    return cached


class BitMass:
    """A mass function with integer-bitmask focal elements.

    Construction does *not* validate or normalize (the hot path builds
    these from already-validated report fields); use
    :meth:`from_mass_function` to convert a validated
    :class:`MassFunction`.
    """

    __slots__ = ("frame", "masses", "conflict_k")

    def __init__(
        self, frame: BitFrame, masses: dict[int, float], conflict_k: float = 0.0
    ) -> None:
        self.frame = frame
        #: Focal bitmask -> mass.
        self.masses = masses
        #: The Dempster conflict K of the combination that produced
        #: this state (0.0 for fresh evidence).
        self.conflict_k = conflict_k

    # -- construction -----------------------------------------------------
    @classmethod
    def simple_support(
        cls, frame: BitFrame, hypothesis: Hypothesis | Iterable[Hypothesis], belief: float
    ) -> "BitMass":
        """One report asserting ``hypothesis``; the rest on Θ."""
        if not 0.0 <= belief <= 1.0:
            raise FusionError(f"belief must be in [0, 1], got {belief}")
        mask = frame.mask(hypothesis)
        if belief <= _EPS:
            return cls(frame, {frame.full: 1.0})
        if belief >= 1.0 - _EPS or mask == frame.full:
            return cls(frame, {mask: 1.0} if mask != frame.full else {frame.full: 1.0})
        return cls(frame, {mask: belief, frame.full: 1.0 - belief})

    @classmethod
    def from_mass_function(cls, m: MassFunction) -> "BitMass":
        """Convert the frozenset oracle form to bitmasks."""
        frame = bit_frame(m.frame)
        masses: dict[int, float] = {}
        for elem, v in m.focal_elements():
            mask = frame.mask(elem)
            masses[mask] = masses.get(mask, 0.0) + v
        return cls(frame, masses)

    def to_mass_function(self) -> MassFunction:
        """Convert back to the validating frozenset form (the oracle)."""
        return MassFunction(
            frozenset(self.frame.hypotheses),
            {self.frame.unmask(mask): v for mask, v in self.masses.items()},
        )

    # -- queries ----------------------------------------------------------
    def mass(self, key: Hypothesis | Iterable[Hypothesis]) -> float:
        """Mass assigned exactly to one focal element."""
        return self.masses.get(self.frame.mask(key), 0.0)

    def belief_mask(self, target: int) -> float:
        """Bel over a bitmask: Σ m(Y) for Y ⊆ target."""
        inv = ~target
        return sum(v for e, v in self.masses.items() if not (e & inv))

    def plausibility_mask(self, target: int) -> float:
        """Pl over a bitmask: Σ m(Y) for Y ∩ target ≠ ∅."""
        return sum(v for e, v in self.masses.items() if e & target)

    def belief(self, key: Hypothesis | Iterable[Hypothesis]) -> float:
        """Bel(X) by hypothesis (mirror of :meth:`MassFunction.belief`)."""
        return self.belief_mask(self.frame.mask(key))

    def plausibility(self, key: Hypothesis | Iterable[Hypothesis]) -> float:
        """Pl(X) by hypothesis (mirror of the oracle form)."""
        return self.plausibility_mask(self.frame.mask(key))

    def unknown(self) -> float:
        """Mass on Θ."""
        return self.masses.get(self.frame.full, 0.0)

    def total(self) -> float:
        """Total mass (≈1; exposed for invariants)."""
        return sum(self.masses.values())

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{{{','.join(sorted(map(str, self.frame.unmask(e))))}}}:{v:.4f}"
            for e, v in sorted(self.masses.items(), key=lambda kv: -kv[1])
        )
        return f"BitMass({parts})"


def combine_incremental(prior: BitMass | None, evidence: BitMass) -> BitMass:
    """Fold one new body of evidence into a running fused state.

    Dempster's rule on bitmask dicts; with ``prior=None`` the evidence
    *is* the state.  The returned state carries the conflict K of this
    combination in :attr:`BitMass.conflict_k`.  Neither operand is
    modified: the result is a new state, so a caller may keep the prior.

    Raises :class:`FusionError` on frame mismatch or total conflict —
    identical failure semantics to :func:`combine`.
    """
    if prior is None:
        return evidence
    if prior.frame is not evidence.frame:
        raise FusionError("cannot combine mass functions over different frames")
    acc: dict[int, float] = {}
    k = 0.0
    for e1, v1 in prior.masses.items():
        for e2, v2 in evidence.masses.items():
            inter = e1 & e2
            w = v1 * v2
            if inter:
                acc[inter] = acc.get(inter, 0.0) + w
            else:
                k += w
    if k >= 1.0 - _EPS:
        raise FusionError("total conflict (K=1): evidence is contradictory")
    norm = 1.0 / (1.0 - k)
    return BitMass(
        prior.frame, {e: v * norm for e, v in acc.items()}, conflict_k=k
    )


def combine_incremental_many(masses: Iterable[BitMass]) -> BitMass:
    """Fold :func:`combine_incremental` over a sequence."""
    acc: BitMass | None = None
    for m in masses:
        acc = combine_incremental(acc, m)
    if acc is None:
        raise FusionError("combine_incremental_many needs at least one mass function")
    return acc
