"""Property tests for the batched DSP layer.

Three claims the DC's batched scan path depends on are made formal
here:

* the plan-backed FFT agrees with a literal O(n^2) DFT to 1e-9;
* the transform conserves energy (Parseval), so no amplitude is
  silently lost by the windowing/correction bookkeeping;
* every ``batch_*`` function agrees with its scalar counterpart
  row-for-row — batching is a pure layout change, never a numerical
  one.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp import (
    averaged_spectrum,
    batch_averaged_spectrum,
    batch_cepstrum,
    batch_envelope_spectrum,
    batch_scalar_features,
    batch_spectrum,
    envelope_spectrum,
    real_cepstrum,
    scalar_features,
    spectrum,
)
from repro.dsp.plan import fast_fft_len, get_plan

FS = 4096.0

#: Finite, moderately sized sample values — the properties are about
#: numerics, not about dynamic-range extremes.
finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def signals(min_rows=1, max_rows=4, n=64):
    return st.lists(
        st.lists(finite, min_size=n, max_size=n),
        min_size=min_rows,
        max_size=max_rows,
    ).map(lambda rows: np.array(rows, dtype=np.float64))


def naive_dft(x: np.ndarray) -> np.ndarray:
    """Literal textbook DFT, O(n^2) — the ground truth."""
    n = x.size
    k = np.arange(n // 2 + 1)
    basis = np.exp(-2j * np.pi * np.outer(k, np.arange(n)) / n)
    return basis @ x


@given(signals(max_rows=3, n=64))
@settings(max_examples=40, deadline=None)
def test_plan_fft_matches_naive_dft(x):
    """The rfft under every plan is the textbook DFT to 1e-9."""
    plan = get_plan(64, "rect", FS)
    amps = plan.amplitudes(x)
    for row, out in zip(x, amps):
        ref = np.abs(naive_dft(row)) / 64
        ref[1:] *= 2.0  # single-sided fold (repo convention: DC only unhalved)
        scale = max(1.0, float(np.max(np.abs(row))))
        np.testing.assert_allclose(out, ref, atol=1e-9 * scale)


@given(st.lists(finite, min_size=64, max_size=64))
@settings(max_examples=40, deadline=None)
def test_parseval_energy_conserved(vals):
    """sum |x|^2 == (1/n) sum |X|^2 for the underlying transform."""
    x = np.array(vals, dtype=np.float64)
    spec = np.fft.rfft(x)
    # Undo the single-sided fold: interior bins appear twice in the
    # full spectrum.
    power = np.abs(spec[0]) ** 2 + np.abs(spec[-1]) ** 2
    power += 2.0 * np.sum(np.abs(spec[1:-1]) ** 2)
    time_energy = float(np.sum(x * x))
    np.testing.assert_allclose(power / 64, time_energy, rtol=1e-9, atol=1e-6)


@given(signals(n=128))
@settings(max_examples=25, deadline=None)
def test_batch_spectrum_matches_scalar_rows(x):
    batch = batch_spectrum(x, FS)
    for i, row in enumerate(x):
        ref = spectrum(row, FS)
        np.testing.assert_array_equal(batch.freqs, ref.freqs)
        np.testing.assert_allclose(batch.amps[i], ref.amps, rtol=0, atol=1e-12)


@given(signals(n=256))
@settings(max_examples=25, deadline=None)
def test_batch_averaged_spectrum_matches_scalar_rows(x):
    batch = batch_averaged_spectrum(x, FS, n_averages=4)
    for i, row in enumerate(x):
        ref = averaged_spectrum(row, FS, n_averages=4)
        np.testing.assert_array_equal(batch.freqs, ref.freqs)
        np.testing.assert_allclose(batch.amps[i], ref.amps, rtol=0, atol=1e-12)


@given(signals(n=256))
@settings(max_examples=25, deadline=None)
def test_batch_envelope_spectrum_matches_scalar_rows(x):
    for band in (None, (200.0, 1200.0)):
        batch = batch_envelope_spectrum(x, FS, band=band)
        for i, row in enumerate(x):
            ref = envelope_spectrum(row, FS, band=band)
            np.testing.assert_array_equal(batch.freqs, ref.freqs)
            np.testing.assert_allclose(
                batch.amps[i], ref.amps, rtol=0, atol=1e-12
            )


@given(signals(n=128))
@settings(max_examples=25, deadline=None)
def test_batch_cepstrum_matches_scalar_rows(x):
    batch = batch_cepstrum(x)
    for i, row in enumerate(x):
        np.testing.assert_allclose(
            batch[i], real_cepstrum(row), rtol=0, atol=1e-10
        )


@given(signals(n=64))
@settings(max_examples=25, deadline=None)
def test_batch_scalar_features_match_scalar_rows(x):
    batch = batch_scalar_features(x)
    for i, row in enumerate(x):
        ref = scalar_features(row)
        for key, vals in batch.items():
            np.testing.assert_allclose(
                vals[i], ref[key], rtol=1e-9, atol=1e-9,
                err_msg=f"feature {key} row {i}",
            )


def test_fast_fft_len_is_13_smooth_and_monotone():
    for n in (8, 64, 100, 1000, 13107, 32768):
        m = fast_fft_len(n)
        assert 8 <= m <= max(n, 8)
        k = m
        for p in (2, 3, 5, 7, 11, 13):
            while k % p == 0:
                k //= p
        assert k == 1, f"fast_fft_len({n}) = {m} is not 13-smooth"
    assert fast_fft_len(13107) == 13104
