import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ProtocolError
from repro.common.units import months
from repro.protocol import PrognosticPoint, PrognosticVector


def vec(*pairs):
    return PrognosticVector.from_pairs(list(pairs))


# -- validation ---------------------------------------------------------

def test_point_rejects_negative_time():
    with pytest.raises(ProtocolError):
        PrognosticPoint(-1.0, 0.5)


def test_point_rejects_probability_out_of_range():
    with pytest.raises(ProtocolError):
        PrognosticPoint(1.0, 1.5)
    with pytest.raises(ProtocolError):
        PrognosticPoint(1.0, -0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_point_rejects_non_finite(bad):
    with pytest.raises(ProtocolError):
        PrognosticPoint(bad, 0.5)
    with pytest.raises(ProtocolError):
        PrognosticPoint(1.0, bad)


def test_vector_sorts_points_by_time():
    v = vec((10.0, 0.9), (5.0, 0.5))
    assert list(v.times) == [5.0, 10.0]


def test_vector_rejects_duplicate_times():
    with pytest.raises(ProtocolError):
        vec((5.0, 0.1), (5.0, 0.2))


def test_vector_rejects_decreasing_probability():
    with pytest.raises(ProtocolError):
        vec((1.0, 0.9), (2.0, 0.1))


def test_empty_vector():
    v = PrognosticVector.empty()
    assert len(v) == 0
    assert v.probability_at(100.0) == 0.0
    assert v.time_to_probability(0.5) == math.inf


# -- the paper's example vector (§5.4) ---------------------------------

PAPER = [(months(3), 0.01), (months(4), 0.5), (months(5), 0.99)]


def test_paper_vector_knots_exact():
    v = PrognosticVector.from_pairs(PAPER)
    assert v.probability_at(months(3)) == pytest.approx(0.01)
    assert v.probability_at(months(4)) == pytest.approx(0.5)
    assert v.probability_at(months(5)) == pytest.approx(0.99)


def test_interpolation_between_knots():
    v = PrognosticVector.from_pairs(PAPER)
    p = v.probability_at(months(4.5))
    assert 0.5 < p < 0.99
    assert p == pytest.approx((0.5 + 0.99) / 2, rel=1e-6)


def test_ramp_from_zero_before_first_knot():
    v = PrognosticVector.from_pairs(PAPER)
    assert v.probability_at(0.0) == 0.0
    assert 0.0 < v.probability_at(months(1.5)) < 0.01


def test_extrapolation_beyond_last_knot_clipped():
    v = PrognosticVector.from_pairs(PAPER)
    assert v.probability_at(months(5.1)) > 0.99
    assert v.probability_at(months(12)) == 1.0


def test_time_to_probability_interpolates():
    v = PrognosticVector.from_pairs(PAPER)
    t50 = v.time_to_probability(0.5)
    assert t50 == pytest.approx(months(4), rel=1e-9)
    t25 = v.time_to_probability(0.25)
    assert months(3) < t25 < months(4)


def test_time_to_probability_extrapolates():
    v = PrognosticVector.from_pairs(PAPER)
    t_sure = v.time_to_probability(0.999)
    assert t_sure > months(5)
    assert t_sure < months(6)


def test_single_point_vector_holds_value():
    v = vec((months(2), 0.3))
    assert v.probability_at(months(4)) == pytest.approx(0.3)
    assert v.time_to_probability(0.5) == math.inf


# -- shifting -----------------------------------------------------------

def test_shift_rebases_times():
    v = PrognosticVector.from_pairs(PAPER).shifted(months(1))
    assert v.times[0] == pytest.approx(months(2))
    assert v.probabilities[0] == pytest.approx(0.01)


def test_shift_clamps_elapsed_horizons():
    v = PrognosticVector.from_pairs(PAPER).shifted(months(4))
    assert v.times[0] == 0.0
    # The strongest already-elapsed claim survives at t=0.
    assert v.probabilities[0] == pytest.approx(0.5)


def test_shift_zero_is_identity():
    v = PrognosticVector.from_pairs(PAPER)
    assert v.shifted(0.0) is v


def test_vectors_hash_and_compare():
    assert PrognosticVector.from_pairs(PAPER) == PrognosticVector.from_pairs(PAPER)
    assert hash(PrognosticVector.from_pairs(PAPER)) == hash(
        PrognosticVector.from_pairs(PAPER)
    )


# -- properties ---------------------------------------------------------

@st.composite
def prognostic_vectors(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    times = sorted(
        draw(
            st.lists(
                st.floats(min_value=1.0, max_value=1e8),
                min_size=n, max_size=n, unique=True,
            )
        )
    )
    probs = sorted(
        draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n))
    )
    return PrognosticVector.from_pairs(list(zip(times, probs)))


@settings(max_examples=60, deadline=None)
@given(v=prognostic_vectors(), t=st.floats(min_value=0.0, max_value=2e8))
def test_probability_at_always_in_unit_interval(v, t):
    p = v.probability_at(t)
    assert 0.0 <= p <= 1.0


@settings(max_examples=60, deadline=None)
@given(v=prognostic_vectors())
def test_probability_curve_is_monotone(v):
    ts = np.linspace(0.0, float(v.times[-1]) * 1.5 + 1.0, 64)
    ps = v.probability_at(ts)
    assert np.all(np.diff(ps) >= -1e-12)


@settings(max_examples=60, deadline=None)
@given(v=prognostic_vectors(), dt=st.floats(min_value=0.0, max_value=1e8))
def test_shift_preserves_validity(v, dt):
    w = v.shifted(dt)
    assert np.all(np.diff(w.times) > 0) or len(w) <= 1
    assert np.all(np.diff(w.probabilities) >= 0) or len(w) <= 1
    # shifted() skips re-validation; the validating constructor must
    # accept what it built and rebuild the same vector.
    assert w == PrognosticVector.from_pairs(w.to_pairs())


def _numpy_rule(pairs):
    """The vector-level rule as first written with numpy, kept as the
    oracle: the error message for a rejected pair list, else None."""
    pts = sorted(pairs, key=lambda p: p[0])
    times = np.array([t for t, _ in pts], dtype=np.float64)
    probs = np.array([p for _, p in pts], dtype=np.float64)
    if times.size:
        if np.any(np.diff(times) <= 0):
            return f"prognostic times must be strictly increasing: {times}"
        if np.any(np.diff(probs) < 0):
            return f"failure probabilities must be non-decreasing in time: {probs}"
    return None


# Draw times from a few fixed values as well as freely, so duplicate
# times (the rejection case) are common.
_validator_times = st.sampled_from([0.0, 1.0, 2.5, 1e6]) | st.floats(
    min_value=0.0, max_value=1e9
)
_validator_probs = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(
    min_value=0.0, max_value=1.0
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_validator_times, _validator_probs), max_size=6))
def test_validator_matches_numpy_rule(pairs):
    want = _numpy_rule(pairs)
    if want is None:
        v = PrognosticVector.from_pairs(pairs)
        assert v.to_pairs() == sorted(pairs, key=lambda p: p[0])
    else:
        with pytest.raises(ProtocolError) as exc:
            PrognosticVector.from_pairs(pairs)
        assert str(exc.value) == want


def _shifted_by_loop(v, dt):
    """``shifted`` as first written — clamp, dedup through a dict, sort,
    running max — kept as the oracle for its one-pass form."""
    if dt == 0 or len(v) == 0:
        return v.to_pairs()
    pairs = [(max(0.0, p.time - dt), p.probability) for p in v]
    dedup: dict[float, float] = {}
    for t, pr in pairs:
        dedup[t] = max(dedup.get(t, 0.0), pr)
    mono = []
    running = 0.0
    for t, pr in sorted(dedup.items()):
        running = max(running, pr)
        mono.append((t, running))
    return mono


def _bits(pairs):
    return [
        (type(t), struct.pack("<d", t), type(p), struct.pack("<d", p))
        for t, p in pairs
    ]


# Mostly small shifts (nothing clamps), some that clamp, and negative
# ones that can merge adjacent knots by rounding.
_shifts = st.one_of(
    st.floats(min_value=0.0, max_value=5e3),
    st.floats(min_value=0.0, max_value=1e9),
    st.floats(min_value=-1e9, max_value=0.0),
    st.sampled_from([0.0, -0.0, 1.0, 3600.0, -1.0]),
)


@settings(max_examples=400, deadline=None)
@given(v=prognostic_vectors(), dt=_shifts)
def test_shifted_is_bitwise_the_loop(v, dt):
    assert _bits(v.shifted(dt).to_pairs()) == _bits(_shifted_by_loop(v, dt))


@pytest.mark.parametrize(
    "pairs, dt",
    [
        ([(10.0, 0.0), (20.0, 0.5)], 1.0),  # zero first probability
        ([(10.0, -0.0), (20.0, 0.5)], 1.0),  # the loop folds -0.0
        ([(10.0, 0), (20.0, 0.5)], 1.0),  # ... and an int zero
        ([(10.0, 0.2), (20.0, 0.5)], 10.0),  # first knot lands on 0
        ([(10, 0.2), (20, 0.5)], 10),  # ... as an int, stored as 0.0
        ([(10.0, 0.2), (20.0, 0.5)], 15.0),  # first knot clamps
        ([(1.0, 0.2), (1.0 + 2**-52, 0.5)], -1.0),  # knots merge
        ([(3600.0, 0.1), (7200.0, 0.3), (86400.0, 0.9)], 0.25),
    ],
)
def test_shifted_edges_match_the_loop(pairs, dt):
    v = vec(*pairs)
    assert _bits(v.shifted(dt).to_pairs()) == _bits(_shifted_by_loop(v, dt))


# -- parity with the point-tuple vector it replaced ------------------------

class _PointVector:
    """The vector as first written — a sorted tuple of validated
    ``PrognosticPoint`` objects — kept as the oracle for the pair
    tuple's errors and container behaviour."""

    def __init__(self, points):
        pts = sorted(points, key=lambda p: p.time)
        times = [p.time for p in pts]
        probs = [p.probability for p in pts]
        if any(a >= b for a, b in zip(times, times[1:])):
            raise ProtocolError(
                "prognostic times must be strictly increasing: "
                f"{np.array(times, dtype=np.float64)}"
            )
        if any(a > b for a, b in zip(probs, probs[1:])):
            raise ProtocolError(
                "failure probabilities must be non-decreasing in time: "
                f"{np.array(probs, dtype=np.float64)}"
            )
        self.points = tuple(pts)

    @classmethod
    def from_pairs(cls, pairs):
        return cls(PrognosticPoint(t, p) for t, p in pairs)

    def __repr__(self):
        inner = ", ".join(f"({p.time:.6g}s, {p.probability:.3g})" for p in self.points)
        return f"PrognosticVector([{inner}])"


def _outcome(build):
    try:
        return "ok", build()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


# Valid and invalid values of every kind, so each check — point time,
# point probability, order, strictness — gets to raise first.
_any_times = st.sampled_from(
    [0.0, -0.0, 1.0, 1.0, 2, 2.5, -1.0, math.nan, math.inf, "1", None]
) | st.floats(min_value=-1.0, max_value=1e6)
_any_probs = st.sampled_from(
    [0.0, 0.5, 0.5, 1, 1.0, 1.5, -0.1, math.nan, -math.inf, "0.5"]
) | st.floats(min_value=-0.1, max_value=1.1)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(_any_times, _any_probs), max_size=6))
def test_from_pairs_errors_match_point_vector(pairs):
    want = _outcome(lambda: _PointVector.from_pairs(pairs))
    got = _outcome(lambda: PrognosticVector.from_pairs(pairs))
    if want[0] == "ok":
        assert got[0] == "ok"
        assert list(got[1]) == list(want[1].points)
    else:
        assert got == want


def test_from_pairs_checks_points_in_input_order_before_sorting():
    # The third pair's bad probability is met before the duplicate time
    # in the first two, and the second pair's bad time before both.
    with pytest.raises(ProtocolError, match="probability must be in"):
        PrognosticVector.from_pairs([(1.0, 0.1), (1.0, 0.2), (0.5, 2.0)])
    with pytest.raises(ProtocolError, match="time must be finite"):
        PrognosticVector.from_pairs([(1.0, 0.1), (-1.0, 0.2), (0.5, 2.0)])
    with pytest.raises(ValueError):
        PrognosticVector.from_pairs([(1.0, 0.1, 0.3)])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_validator_times, _validator_probs), max_size=6))
def test_init_errors_match_point_vector(pairs):
    points = [PrognosticPoint(t, p) for t, p in pairs]
    want = _outcome(lambda: _PointVector(iter(points)))
    got = _outcome(lambda: PrognosticVector(iter(points)))
    if want[0] == "ok":
        assert got[0] == "ok"
        assert got[1] == PrognosticVector.from_pairs(pairs)
    else:
        assert got == want


_container_cases = [
    [],
    [(3600.0, 0.1)],
    [(0.0, 0.0), (10, 1)],
    [(-0.0, -0.0), (2.5, 0.5), (months(3), 0.99)],
    [(20.0, 0.9), (5.0, 0.25), (7.5, 0.5)],
]


@pytest.mark.parametrize("pairs", _container_cases)
def test_container_behaviour_matches_point_vector(pairs):
    import pickle

    old = _PointVector.from_pairs(pairs)
    new = PrognosticVector.from_pairs(pairs)
    assert tuple(new) == old.points
    assert all(type(p) is PrognosticPoint for p in new)
    assert [new[i] for i in range(-len(pairs), len(pairs))] == [
        old.points[i] for i in range(-len(pairs), len(pairs))
    ]
    assert new[1:] == old.points[1:] and new[::-1] == old.points[::-1]
    with pytest.raises(IndexError):
        new[len(pairs)]
    assert repr(new) == repr(old)
    assert hash(new) == hash(old.points)
    assert new == PrognosticVector(old.points)
    # Equal values of other types compare and hash equal, as points do.
    floats = PrognosticVector.from_pairs([(float(t), float(p)) for t, p in pairs])
    assert new == floats and hash(new) == hash(floats)
    back = pickle.loads(pickle.dumps(new))
    assert back == new and hash(back) == hash(new)
    assert _bits(back.to_pairs()) == _bits(new.to_pairs())
    # Stored as given: an int knot stays an int on the wire.
    assert [(t, p, type(t), type(p)) for t, p in new.to_pairs()] == [
        (q.time, q.probability, type(q.time), type(q.probability)) for q in old.points
    ]


def test_numeric_views_are_fresh_read_only_arrays():
    v = PrognosticVector.from_pairs(PAPER)
    assert v.times is not v.times
    assert v.times.dtype == np.float64 and not v.times.flags.writeable
    assert not v.probabilities.flags.writeable
    assert PrognosticVector.empty().times.shape == (0,)
