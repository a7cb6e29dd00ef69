"""Oracle properties for the rule-lookup fast paths.

The DLI and fuzzy suites call ``Spectrum.amplitude_at``,
``_twice_shaft_vs_twice_line`` and the piecewise-linear membership
functions dozens of times per DC cycle, so each has a plain-float or
sliced fast path.  Every fast path must return exactly what the
whole-array numpy version returns — bit for bit, NaN and signed zeros
included — because the report bytes depend on it.  The numpy versions
are kept here as the oracles.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.algorithms.dli.rules import _twice_shaft_vs_twice_line
from repro.algorithms.fuzzy.sets import Trapezoid, Triangle
from repro.dsp.fft import Spectrum
from repro.plant.rotating import MachineKinematics


def _same(a, b) -> bool:
    """Bitwise float equality (NaN equals NaN; 0.0 differs from -0.0)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return np.float64(a).tobytes() == np.float64(b).tobytes() or (
        math.isnan(a) and math.isnan(b)
    )


# -- oracles: the whole-array versions --------------------------------------------

def amplitude_at_oracle(spec: Spectrum, freq: float, tolerance_bins: float = 2.0) -> float:
    if freq < 0 or freq > spec.freqs[-1]:
        return 0.0
    res = spec.resolution
    half_width = tolerance_bins * res
    if not np.isfinite(res) or res <= 0:
        mask = np.abs(spec.freqs - freq) <= half_width
        if not mask.any():
            return 0.0
        return float(spec.amps[mask].max())
    lo = max(int(np.floor((freq - half_width) / res)) - 1, 0)
    hi = min(int(np.ceil((freq + half_width) / res)) + 2, spec.freqs.size)
    if hi <= lo:
        return 0.0
    window = spec.freqs[lo:hi]
    mask = np.abs(window - freq) <= half_width
    if not mask.any():
        return 0.0
    return float(spec.amps[lo:hi][mask].max())


def twice_shaft_vs_twice_line_oracle(hires: Spectrum, k) -> tuple[float, float]:
    f_mis = 2 * k.shaft_hz
    f_ph = 2 * k.line_hz
    res = hires.resolution
    if abs(f_mis - f_ph) > 6 * res:
        return (
            amplitude_at_oracle(hires, f_mis, tolerance_bins=2),
            amplitude_at_oracle(hires, f_ph, tolerance_bins=2),
        )
    lo = min(f_mis, f_ph) - 3 * res
    hi = max(f_mis, f_ph) + 3 * res
    mask = (hires.freqs >= lo) & (hires.freqs <= hi)
    if not mask.any():
        return 0.0, 0.0
    idx = np.flatnonzero(mask)
    peak_idx = idx[int(np.argmax(hires.amps[idx]))]
    f_peak = float(hires.freqs[peak_idx])
    peak_amp = float(hires.amps[peak_idx])
    winner_is_mis = abs(f_peak - f_mis) <= abs(f_peak - f_ph)
    loser_f = f_ph if winner_is_mis else f_mis
    loser_mask = (np.abs(hires.freqs - loser_f) <= 2 * res) & (
        np.abs(hires.freqs - f_peak) > 2.5 * res
    )
    loser_amp = float(hires.amps[loser_mask].max()) if loser_mask.any() else 0.0
    if winner_is_mis:
        return peak_amp, loser_amp
    return loser_amp, peak_amp


# -- strategies -----------------------------------------------------------------------

#: Amplitudes: small integers make ties (argmax / max order) common.
amplitude = st.one_of(
    st.integers(0, 4).map(float),
    st.floats(0.0, 1e3, allow_nan=False),
    st.just(math.nan),
)


@st.composite
def rfft_spectra(draw, min_n=1, max_n=300):
    """An rfft bin grid (1 bin up to a few hundred) with random amps."""
    n = draw(st.integers(min_n, max_n))
    fs = draw(st.sampled_from([1.0, 100.0, 1000.0, 4096.0, 16384.0, 44100.0]))
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    amps = np.array(draw(st.lists(amplitude, min_size=freqs.size, max_size=freqs.size)))
    return Spectrum(freqs=freqs, amps=amps, sample_rate=fs)


@st.composite
def lookups(draw):
    spec = draw(rfft_spectra())
    tol = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5]), st.floats(0.0, 6.0)))
    res = spec.resolution if spec.freqs.size > 1 else 1.0
    top = float(spec.freqs[-1])
    i = draw(st.integers(0, spec.freqs.size - 1))
    freq = draw(
        st.one_of(
            st.floats(-3 * res, top + 3 * res),      # anywhere, out of range too
            st.just(float(spec.freqs[i])),            # on a bin
            st.just(float(spec.freqs[i]) + tol * res),  # on a band edge
            st.just(float(spec.freqs[i]) - tol * res),
            st.just(top),
            st.just(-0.0),
        )
    )
    return spec, freq, tol


@settings(max_examples=250, deadline=None)
@given(lookups())
def test_amplitude_at_matches_mask_oracle(case):
    spec, freq, tol = case
    assert _same(spec.amplitude_at(freq, tol), amplitude_at_oracle(spec, freq, tol))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(amplitude, min_size=2, max_size=2),
    st.floats(0.01, 100.0),
    st.floats(-1.0, 200.0),
    st.floats(0.0, 4.0),
)
def test_amplitude_at_two_bin_spectra(amps, top, freq, tol):
    spec = Spectrum(freqs=np.array([0.0, top]), amps=np.array(amps), sample_rate=2 * top)
    assert _same(spec.amplitude_at(freq, tol), amplitude_at_oracle(spec, freq, tol))


@st.composite
def twice_cases(draw):
    spec = draw(rfft_spectra(min_n=1, max_n=400))
    top = float(spec.freqs[-1])
    assume(top > 0)
    res = spec.resolution if spec.freqs.size > 1 else top
    i = draw(st.integers(0, spec.freqs.size - 1))
    # Anywhere, or placed so that the [lo, hi] search window's edge
    # (2x frequency ∓ 3 bins) lands exactly on a bin.
    line = draw(
        st.one_of(
            st.floats(top * 0.02, top * 0.5),
            st.just((float(spec.freqs[i]) + 3 * res) / 2),
            st.just((float(spec.freqs[i]) - 3 * res) / 2),
        )
    )
    # Synchronous, near-synchronous (the overlapping case) or well separated.
    slip = draw(st.one_of(st.just(0.0), st.floats(-0.03, 0.03), st.floats(-0.5, 0.5)))
    shaft = line * (1.0 - slip)
    if draw(st.booleans()):
        shaft, line = line, shaft
    assume(shaft > 0 and line > 0)
    return spec, MachineKinematics(shaft_hz=shaft, line_hz=line)


@settings(max_examples=250, deadline=None)
@given(twice_cases())
def test_twice_shaft_vs_twice_line_matches_mask_oracle(case):
    hires, k = case
    assert _same(
        _twice_shaft_vs_twice_line(hires, k), twice_shaft_vs_twice_line_oracle(hires, k)
    )


# -- membership functions: float path vs array path ----------------------------------

finite = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def corners(draw, count):
    """Sorted corner points, often coincident (degenerate ramps) or a
    subnormal distance apart."""
    base = sorted(draw(st.lists(finite, min_size=count, max_size=count)))
    out = [base[0]]
    for v in base[1:]:
        step = draw(st.sampled_from(["keep", "same", "tiny"]))
        if step == "same":
            v = out[-1]
        elif step == "tiny":
            v = out[-1] + 5e-324 * draw(st.integers(1, 4))
        out.append(max(v, out[-1]))
    return out


def _probes(draw, pts):
    """Crisp inputs at every corner, just beside it, and anywhere."""
    p = draw(st.sampled_from(pts))
    return draw(
        st.one_of(
            st.just(p),
            st.just(math.nextafter(p, math.inf)),
            st.just(math.nextafter(p, -math.inf)),
            finite,
            st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
            st.integers(-1000, 1000),
        )
    )


def _array_path(mf, x) -> float:
    return float(mf(np.array([x], dtype=np.float64))[0])


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_triangle_float_path_matches_array_path(data):
    a, b, c = data.draw(corners(3))
    mf = Triangle(a, b, c)
    x = _probes(data.draw, [a, b, c])
    got = mf(x)
    assert _same(got, _array_path(mf, x))
    assert _same(got, mf(np.asarray(x, dtype=np.float64)))


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_trapezoid_float_path_matches_array_path(data):
    a, b, c, d = data.draw(corners(4))
    mf = Trapezoid(a, b, c, d)
    x = _probes(data.draw, [a, b, c, d])
    got = mf(x)
    assert _same(got, _array_path(mf, x))
    assert _same(got, mf(np.asarray(x, dtype=np.float64)))


@pytest.mark.parametrize(
    "mf",
    [
        Triangle(0.0, 0.0, 0.0),
        Triangle(0.0, 0.0, 1.0),
        Triangle(0.0, 1.0, 1.0),
        Trapezoid(0.0, 0.0, 0.0, 0.0),
        Trapezoid(6.0, 10.0, 50.0, 50.0),
        Trapezoid(-50.0, -50.0, -10.0, -6.0),
    ],
)
def test_degenerate_ramps_and_shoulders(mf):
    for x in (-60.0, -50.0, -10.0, -6.0, -0.0, 0.0, 0.5, 1.0, 6.0, 10.0, 50.0, 60.0,
              math.nan, math.inf, -math.inf, 3):
        assert _same(mf(x), _array_path(mf, x)), x


