import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import FusionError
from repro.common.units import months
from repro.fusion import PrognosticFusion, conservative_envelope, noisy_or_envelope
from repro.protocol import FailurePredictionReport, PrognosticVector

PAPER_A = PrognosticVector.from_pairs(
    [(months(3), 0.01), (months(4), 0.5), (months(5), 0.99)]
)


def prog_report(pairs, t=0.0, obj="obj:comp", cond="mc:bearing-wear", ks="ks:dli"):
    return FailurePredictionReport(
        knowledge_source_id=ks,
        sensed_object_id=obj,
        machine_condition_id=cond,
        severity=0.5,
        belief=0.0,
        timestamp=t,
        prognostic=PrognosticVector.from_pairs(pairs),
    )


# -- the paper's §5.4 examples -------------------------------------------

def test_paper_example_mild_report_ignored():
    """((4.5mo, .12)) against the 3/4/5-month curve: 'we will ignore
    the second report, and stick with the first which is more
    conservative'."""
    b = PrognosticVector.from_pairs([(months(4.5), 0.12)])
    fused = conservative_envelope([PAPER_A, b])
    # At every horizon the fused curve equals A's curve.
    ts = np.linspace(0, months(6), 200)
    assert np.allclose(fused.probability_at(ts), PAPER_A.probability_at(ts), atol=1e-9)


def test_paper_example_pessimistic_report_dominates():
    """((4.5mo, .95)) 'would dominate, and the extrapolation of the
    curve beyond this point would indicate an even earlier demise'."""
    b = PrognosticVector.from_pairs([(months(4.5), 0.95)])
    fused = conservative_envelope([PAPER_A, b])
    # At 4.5 months the fused value is b's 0.95, not A's 0.745.
    assert fused.probability_at(months(4.5)) == pytest.approx(0.95)
    # Certain failure is now predicted earlier than A alone predicted.
    assert fused.time_to_probability(0.99) < PAPER_A.time_to_probability(0.99)
    # ... but still "some time after" A's 5-month knot region; i.e.
    # the fused curve stays a valid monotone curve.
    assert fused.time_to_probability(0.99) > months(4.5)


def test_envelope_level_shift_semantics():
    """A dominating single-point report rides the prevailing trend."""
    a = PrognosticVector.from_pairs([(10.0, 0.2), (20.0, 0.6)])
    b = PrognosticVector.from_pairs([(15.0, 0.5)])
    fused = conservative_envelope([a, b])
    assert fused.probability_at(10.0) == pytest.approx(0.2)
    # At b's knot the fused value is b's (0.5 > a's interpolated 0.4).
    assert fused.probability_at(15.0) == pytest.approx(0.5)
    # Beyond, b's level shift follows a's slope: 0.5 + (0.6 - 0.4).
    assert fused.probability_at(20.0) == pytest.approx(0.7)
    # Between knots the paper interpolates "a smooth curve from point
    # to point": the fused curve smooths toward b's dominating knot and
    # never under-calls a.
    assert fused.probability_at(12.5) == pytest.approx(0.35)
    assert fused.probability_at(12.5) >= float(a.probability_at(12.5))


def test_envelope_empty_inputs():
    assert len(conservative_envelope([])) == 0
    assert len(conservative_envelope([PrognosticVector.empty()])) == 0


def test_envelope_single_input_identity():
    assert conservative_envelope([PAPER_A]) == PAPER_A


def test_envelope_truncates_after_certainty():
    a = PrognosticVector.from_pairs([(1.0, 1.0)])
    b = PrognosticVector.from_pairs([(2.0, 0.5), (3.0, 0.9)])
    fused = conservative_envelope([a, b])
    assert float(fused.times[-1]) == 1.0
    assert fused.probability_at(5.0) == 1.0


# -- noisy-or ablation ------------------------------------------------------

def test_noisy_or_at_least_as_pessimistic():
    a = PrognosticVector.from_pairs([(10.0, 0.3)])
    b = PrognosticVector.from_pairs([(10.0, 0.4)])
    cons = conservative_envelope([a, b])
    nor = noisy_or_envelope([a, b])
    assert nor.probability_at(10.0) == pytest.approx(1 - 0.7 * 0.6)
    assert nor.probability_at(10.0) > cons.probability_at(10.0)


def test_noisy_or_empty():
    assert len(noisy_or_envelope([])) == 0


# -- PrognosticFusion stateful behaviour -------------------------------------

def test_fusion_tracks_per_condition():
    pf = PrognosticFusion()
    pf.ingest(prog_report([(100.0, 0.5)], cond="mc:a"))
    pf.ingest(prog_report([(200.0, 0.5)], cond="mc:b"))
    assert set(pf.conditions_for_object("obj:comp")) == {"mc:a", "mc:b"}


def test_fusion_rejects_empty_vector():
    pf = PrognosticFusion()
    with pytest.raises(FusionError):
        pf.ingest(prog_report([]))


def test_fusion_rebases_stale_reports():
    """A report issued earlier is age-shifted before combination."""
    pf = PrognosticFusion()
    pf.ingest(prog_report([(100.0, 0.8)], t=0.0))
    state = pf.state("obj:comp", "mc:bearing-wear", now=40.0)
    # The 100 s horizon is now only 60 s away.
    assert state.vector.probability_at(60.0) == pytest.approx(0.8)


def test_fusion_future_stamped_report_treated_as_now():
    pf = PrognosticFusion()
    pf.ingest(prog_report([(100.0, 0.8)], t=50.0))
    state = pf.state("obj:comp", "mc:bearing-wear", now=0.0)
    assert state.vector.probability_at(100.0) == pytest.approx(0.8)


def test_fusion_combines_multiple_sources():
    pf = PrognosticFusion()
    pf.ingest(prog_report([(100.0, 0.3)], ks="ks:dli"))
    pf.ingest(prog_report([(100.0, 0.7)], ks="ks:wnn"))
    state = pf.state("obj:comp", "mc:bearing-wear", now=0.0)
    assert state.vector.probability_at(100.0) == pytest.approx(0.7)
    assert state.report_count == 2


def test_time_to_failure_estimate():
    pf = PrognosticFusion()
    pf.ingest(prog_report([(months(4), 0.5)], t=0.0))
    state = pf.state("obj:comp", "mc:bearing-wear", now=0.0)
    assert state.time_to_failure(0.5) == pytest.approx(months(4))


def test_reset_forgets_history():
    pf = PrognosticFusion()
    pf.ingest(prog_report([(100.0, 0.5)]))
    pf.reset("obj:comp", "mc:bearing-wear")
    state = pf.state("obj:comp", "mc:bearing-wear", now=0.0)
    assert len(state.vector) == 0
    assert state.time_to_failure() == math.inf


# -- properties -------------------------------------------------------------

@st.composite
def vectors(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    times = sorted(draw(st.lists(
        st.floats(min_value=1.0, max_value=1e6), min_size=n, max_size=n, unique=True)))
    probs = sorted(draw(st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n)))
    return PrognosticVector.from_pairs(list(zip(times, probs)))


@settings(max_examples=60, deadline=None)
@given(vs=st.lists(vectors(), min_size=1, max_size=4))
def test_envelope_dominates_every_input(vs):
    """The fused curve is never *less* conservative than any input,
    evaluated where that input actually claims something (at and after
    its first knot)."""
    fused = conservative_envelope(vs)
    grid = np.unique(np.concatenate([v.times for v in vs]))
    fused_vals = np.asarray(fused.probability_at(grid))
    for v in vs:
        mask = grid >= float(v.times[0])
        claimed = np.asarray(v.probability_at(grid))[mask]
        assert np.all(fused_vals[mask] >= claimed - 1e-9)


@settings(max_examples=60, deadline=None)
@given(vs=st.lists(vectors(), min_size=1, max_size=4))
def test_envelope_output_is_valid_vector(vs):
    fused = conservative_envelope(vs)
    assert np.all(np.diff(fused.times) > 0) or len(fused) <= 1
    assert np.all(np.diff(fused.probabilities) >= 0) or len(fused) <= 1


@settings(max_examples=40, deadline=None)
@given(vs=st.lists(vectors(), min_size=2, max_size=4))
def test_envelope_commutative(vs):
    assert conservative_envelope(vs) == conservative_envelope(list(reversed(vs)))


@settings(max_examples=40, deadline=None)
@given(vs=st.lists(vectors(), min_size=1, max_size=3))
def test_noisy_or_dominates_every_input(vs):
    """1 − Π(1−p_i) ≥ max p_i: noisy-or never under-calls any source."""
    nor = noisy_or_envelope(vs)
    grid = np.unique(np.concatenate([v.times for v in vs]))
    nor_vals = np.asarray(nor.probability_at(grid))
    for v in vs:
        assert np.all(nor_vals >= np.asarray(v.probability_at(grid)) - 1e-9)


@settings(max_examples=60, deadline=None)
@given(
    stream=st.lists(
        st.tuples(
            vectors(),
            st.floats(min_value=0.0, max_value=1e5),
            st.sampled_from(["mc:a", "mc:b"]),
        ),
        min_size=1,
        max_size=8,
    ),
    nows=st.lists(st.floats(min_value=0.0, max_value=2e5), min_size=1, max_size=4),
)
def test_fused_equals_the_envelope_of_the_rebased_stream(stream, nows):
    """Fusion keeps no oracle of its own: at every query time, and again
    from the memo, each pair's fused curve is bit for bit the
    conservative envelope of the test's own reports for that pair,
    re-based to that time."""
    pf = PrognosticFusion()
    for vector, t, cond in stream:
        pf.ingest(prog_report(vector.to_pairs(), t=t, cond=cond))
    for now in nows + nows:
        for cond in ("mc:a", "mc:b"):
            mine = [(v, t) for v, t, c in stream if c == cond]
            want = conservative_envelope(
                [v.shifted(max(0.0, now - t)) for v, t in mine]
            )
            count, got = pf.fused("obj:comp", cond, now)
            assert count == len(mine)
            assert _bits(got.to_pairs()) == _bits(want.to_pairs())


# -- the float envelope against the numpy form it replaced ----------------

def _numpy_envelope(vectors):
    """``conservative_envelope`` as written with numpy, kept as the
    oracle for the float form: probability_at on the np.unique grid,
    row maxima, np.clip and np.maximum.accumulate."""
    vecs = [v for v in vectors if len(v)]
    if not vecs:
        return PrognosticVector.empty()
    if len(vecs) == 1:
        return vecs[0]
    grid = np.unique(np.concatenate([v.times for v in vecs]))
    multi = [v for v in vecs if len(v) >= 2]
    single = [v for v in vecs if len(v) == 1]
    contributions = []
    if multi:
        prevailing = np.vstack(
            [np.asarray(v.probability_at(grid)) for v in multi]
        ).max(axis=0)
        contributions.append(prevailing)
    else:
        prevailing = np.zeros_like(grid)
    for v in single:
        t_s = float(v.times[0])
        p_s = float(v.probabilities[0])
        base_at_knot = float(np.interp(t_s, grid, prevailing))
        shifted = p_s + (prevailing - base_at_knot)
        contributions.append(np.where(grid >= t_s, shifted, -np.inf))
    fused = np.vstack(contributions).max(axis=0)
    fused = np.clip(np.where(np.isfinite(fused), fused, 0.0), 0.0, 1.0)
    fused = np.maximum.accumulate(fused)
    out = []
    for t, p in zip(grid.tolist(), fused.tolist()):
        out.append((t, p))
        if p >= 1.0:
            break
    return PrognosticVector.from_pairs(out)


def _bits(pairs):
    return [
        (type(t), struct.pack("<d", t), type(p), struct.pack("<d", p))
        for t, p in pairs
    ]


def _unsigned_zero_times(pairs):
    return [(0.0 if t == 0 else t, p) for t, p in pairs]


# Knot times and probabilities mix fixed edge values (zeros of both
# signs, ints, certainty) with free floats, so ties, clamps, -0.0 and
# saturated tails are common.
_knot_times = st.one_of(
    st.sampled_from([0.0, -0.0, 0, 1, 3, 1.0, 2.5, 3600.0, 7200]),
    st.floats(min_value=0.0, max_value=1e7),
    st.floats(min_value=0.0, max_value=1e-300),
)
_knot_probs = st.one_of(
    st.sampled_from([0.0, -0.0, 0, 1, 1.0, 0.5, 1.0 - 2**-52]),
    st.floats(min_value=0.0, max_value=1.0),
)


@st.composite
def _knotted(draw, sizes):
    n = draw(sizes)
    times = draw(st.lists(_knot_times, min_size=n, max_size=n, unique_by=float))
    probs = sorted(draw(st.lists(_knot_probs, min_size=n, max_size=n)))
    vec = PrognosticVector.from_pairs(list(zip(sorted(times), probs)))
    # Age some vectors so elapsed knots clamp to 0 and merge.
    dt = draw(st.sampled_from([0.0, 0.0, 1.0, 2.0, 3600.0]) | st.floats(0.0, 1e4))
    return vec.shifted(dt)


_singles = _knotted(st.just(1))
_multis = _knotted(st.integers(min_value=2, max_value=7))
_envelope_inputs = st.one_of(
    st.lists(_singles, max_size=5),
    st.lists(_multis, max_size=5),
    st.lists(_singles | _multis, max_size=6),
)


@settings(max_examples=400, deadline=None)
@given(_envelope_inputs)
def test_envelope_is_bitwise_the_numpy_form(vs):
    with np.errstate(over="ignore", invalid="ignore"):
        want = _numpy_envelope(vs).to_pairs()
    got = conservative_envelope(vs).to_pairs()
    zeros = {math.copysign(1.0, t) for v in vs for t, _ in v.to_pairs() if t == 0}
    if len(zeros) > 1:
        # numpy's sort keeps either signed zero of a tie; only that
        # time's sign may differ.
        want, got = _unsigned_zero_times(want), _unsigned_zero_times(got)
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize(
    "pairs_list",
    [
        # Only singles, one of them at a -0.0 probability.
        [[(5.0, -0.0)], [(9.0, 0.25)], [(2.0, 0.1)]],
        # Only multis, one saturating past its last knot.
        [[(1.0, 0.2), (2.0, 0.9)], [(0.5, 0.0), (10.0, 0.3)]],
        # Mixed, with int knots and a -0.0 knot time.
        [[(-0.0, 0), (3, 1)], [(2, 0.5)], [(1.0, -0.0), (4.0, 0.75)]],
        # A single report that level-shifts past certainty.
        [[(1.0, 0.1), (4.0, 0.4)], [(2.0, 0.95)]],
        # Signed-zero ties, each settled the way numpy settles it: two
        # curves at -0.0 and 0.0 (np.maximum keeps the second) ...
        [[(1.0, -0.0), (2.0, 0.5)], [(1.0, 0.0), (3.0, 0.5)]],
        # ... a single report tying the prevailing curve's -0.0 ...
        [[(1.0, -0.0), (5.0, 0.5)], [(1.0, 0.0)]],
        # ... and the running max meeting -0.0 after 0.0.
        [[(1.0, 0.0), (2.0, -0.0), (3.0, 0.5)], [(3.0, 0.1)]],
    ],
)
def test_envelope_edges_are_bitwise_the_numpy_form(pairs_list):
    vs = [PrognosticVector.from_pairs(p) for p in pairs_list]
    with np.errstate(over="ignore", invalid="ignore"):
        want = _numpy_envelope(vs).to_pairs()
    assert _bits(conservative_envelope(vs).to_pairs()) == _bits(want)
