"""Single-pass reads equal the per-call reads they replace, bit for bit.

A DC vibration test reads its block's kurtosis once for all rows,
gathers every line amplitude of a spectrum at once, and takes band
medians from slices of the sorted bin grid.  Report bytes depend on
each value, so each is checked against the plain computation it
replaced, NaN included.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.dli.rules import _local_background
from repro.dsp.batch import BatchSpectralCache
from repro.dsp.features import kurtosis_excess
from repro.dsp.fft import Spectrum, estimate_shaft_speed, window_median


def _same(a, b) -> bool:
    """Bitwise float equality (NaN equals NaN; 0.0 differs from -0.0)."""
    return np.float64(a).tobytes() == np.float64(b).tobytes() or (
        math.isnan(a) and math.isnan(b)
    )


#: Amplitudes: small integers make ties common; NaN must propagate.
amplitude = st.one_of(
    st.integers(0, 4).map(float),
    st.floats(0.0, 1e3, allow_nan=False),
    st.just(math.nan),
)


@st.composite
def spectra(draw, min_n=2, max_n=300):
    n = draw(st.integers(min_n, max_n))
    fs = draw(st.sampled_from([100.0, 1000.0, 2500.0, 4096.0, 16384.0]))
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    amps = np.array(draw(st.lists(amplitude, min_size=freqs.size, max_size=freqs.size)))
    return Spectrum(freqs=freqs, amps=amps, sample_rate=fs)


# -- batched kurtosis ---------------------------------------------------------------

@st.composite
def waveform_stacks(draw):
    rows = draw(st.integers(1, 4))
    n = draw(st.integers(8, 600))
    seed = draw(st.integers(0, 2**32 - 1))
    x = np.random.default_rng(seed).normal(size=(rows, n)) * draw(
        st.sampled_from([1e-3, 1.0, 1e3])
    )
    for r in range(rows):
        kind = draw(st.sampled_from(["noise", "constant", "nan", "impulsive"]))
        if kind == "constant":
            x[r] = draw(st.floats(-1e3, 1e3))
        elif kind == "nan":
            x[r, draw(st.integers(0, n - 1))] = math.nan
        elif kind == "impulsive":
            x[r, :: max(1, n // 7)] *= 40.0
    return x


@settings(max_examples=150, deadline=None)
@given(waveform_stacks())
def test_batched_kurtosis_row_equals_scalar_kurtosis(x):
    cache = BatchSpectralCache(waveforms=x, sample_rate=1000.0)
    batched = cache.kurtosis()
    assert batched.shape == (x.shape[0],)
    for r in range(x.shape[0]):
        want = kurtosis_excess(x[r].copy())
        assert _same(batched[r], want)
        assert _same(cache.view(r).kurtosis(), want)


def test_kurtosis_of_constant_and_nan_rows_is_zero():
    x = np.ones((2, 64))
    x[1, 3] = math.nan
    assert BatchSpectralCache(waveforms=x, sample_rate=1.0).kurtosis().tolist() == [0.0, 0.0]


# -- gathered line amplitudes -------------------------------------------------------

@st.composite
def gathers(draw):
    spec = draw(spectra())
    res = spec.resolution
    top = float(spec.freqs[-1])
    n_lines = draw(st.integers(0, 12))
    lines = []
    for _ in range(n_lines):
        i = draw(st.integers(0, spec.freqs.size - 1))
        tol = draw(st.one_of(st.sampled_from([0.0, 1.0, 2.0, 3.0]), st.floats(0.0, 6.0)))
        freq = draw(
            st.one_of(
                st.floats(-3 * res, top + 3 * res),  # anywhere, out of range too
                st.floats(-1e3, -1e-9),               # below zero
                st.just(float(spec.freqs[i])),        # on a bin
                st.just(float(spec.freqs[i]) + tol * res),  # on a window edge
                st.just(top),                         # at the last bin
                st.just(np.nextafter(top, np.inf)),   # just past it
                st.floats(top + 1e-9, top * 4 + 1),   # past it
                st.just(-0.0),
            )
        )
        lines.append((freq, tol))
    return spec, lines


@settings(max_examples=300, deadline=None)
@given(gathers())
def test_gathered_amplitudes_equal_amplitude_at(case):
    spec, lines = case
    freqs = [f for f, _ in lines]
    tols = [t for _, t in lines]
    got = spec.amplitudes_at(freqs, tols)
    assert len(got) == len(lines)
    for value, (freq, tol) in zip(got, lines):
        assert type(value) is float
        assert _same(value, spec.amplitude_at(freq, tol))


@settings(max_examples=100, deadline=None)
@given(gathers(), st.sampled_from([1.0, 2.0, 3.0]))
def test_gather_with_one_tolerance_for_all_lines(case, tol):
    spec, lines = case
    freqs = [f for f, _ in lines]
    got = spec.amplitudes_at(freqs, tol)
    assert all(_same(g, spec.amplitude_at(f, tol)) for g, f in zip(got, freqs))


def test_gather_on_a_one_bin_spectrum_takes_the_scalar_path():
    spec = Spectrum(freqs=np.array([0.0]), amps=np.array([2.0]), sample_rate=1.0)
    assert spec.amplitudes_at([0.0, 1.0], 2.0) == [
        spec.amplitude_at(0.0, 2.0), spec.amplitude_at(1.0, 2.0)
    ]


# -- band medians from slices ---------------------------------------------------------

def _shaft_speed_mask_oracle(spec, nominal_hz, search_pct):
    """estimate_shaft_speed as it read its window: a mask over every bin."""
    half = nominal_hz * search_pct / 100.0
    mask = (spec.freqs >= nominal_hz - half) & (spec.freqs <= nominal_hz + half)
    idx = np.flatnonzero(mask)
    if idx.size < 3:
        return float(nominal_hz)
    window = spec.amps[idx]
    floor = 3.0 * float(np.median(window))
    padded = np.concatenate(([-np.inf], window, [-np.inf]))
    is_peak = (window >= padded[:-2]) & (window >= padded[2:])
    candidates = idx[is_peak & (window > floor)]
    if candidates.size == 0:
        return float(nominal_hz)
    peak = int(candidates[np.argmin(np.abs(spec.freqs[candidates] - nominal_hz))])
    if 0 < peak < spec.freqs.size - 1:
        a, b, c = spec.amps[peak - 1], spec.amps[peak], spec.amps[peak + 1]
        denom = a - 2 * b + c
        delta = 0.5 * (a - c) / denom if abs(denom) > 1e-18 else 0.0
        delta = float(np.clip(delta, -0.5, 0.5))
    else:
        delta = 0.0
    return float(spec.freqs[peak] + delta * spec.resolution)


@st.composite
def speed_cases(draw):
    spec = draw(spectra(min_n=8))
    top = float(spec.freqs[-1])
    i = draw(st.integers(1, spec.freqs.size - 1))
    nominal = draw(st.one_of(st.floats(top * 0.01, top), st.just(float(spec.freqs[i]))))
    pct = draw(st.one_of(st.sampled_from([3.0, 8.0, 20.0]), st.floats(0.1, 49.0)))
    return spec, nominal, pct


@settings(max_examples=250, deadline=None)
@given(speed_cases())
def test_shaft_speed_window_slice_matches_mask(case):
    spec, nominal, pct = case
    with np.errstate(invalid="ignore"):
        want = _shaft_speed_mask_oracle(spec, nominal, pct)
        got = estimate_shaft_speed(spec, nominal, pct)
    assert _same(got, want)


@settings(max_examples=300, deadline=None)
@given(st.lists(amplitude, min_size=1, max_size=41))
def test_window_median_equals_np_median(values):
    a = np.array(values)
    assert _same(window_median(a), float(np.median(a)))


def _background_mask_oracle(es, line_hz):
    mask = (
        (es.freqs >= 0.5 * line_hz)
        & (es.freqs < 2.0 * line_hz)
        & (np.abs(es.freqs - line_hz) > 5 * es.resolution)
    )
    return float(np.median(es.amps[mask])) + 1e-12 if mask.any() else 1e-12


def _grid(n_bins, res=0.5):
    return np.arange(n_bins) * res


@settings(max_examples=250, deadline=None)
@given(spectra(min_n=4), st.floats(0.0, 1.0))
def test_local_background_slice_matches_mask(es, where):
    line_hz = float(where * es.freqs[-1])
    assert _same(_local_background(es, line_hz), _background_mask_oracle(es, line_hz))


def test_background_examples_cover_odd_and_even_counts():
    for n_bins, line_hz, count in ((60, 10.0, 19), (61, 10.25, 20)):
        es = Spectrum(_grid(n_bins), np.arange(float(n_bins)), 2.0 * n_bins)
        mask = (
            (es.freqs >= 0.5 * line_hz)
            & (es.freqs < 2.0 * line_hz)
            & (np.abs(es.freqs - line_hz) > 5 * es.resolution)
        )
        assert int(mask.sum()) == count
        assert _same(_local_background(es, line_hz), _background_mask_oracle(es, line_hz))
