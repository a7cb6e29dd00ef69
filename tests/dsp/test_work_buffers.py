"""The FFT work buffers are scratch, never results.

``FftPlan.amplitudes`` and the envelope's full-length ``rfft`` write
their windowed input and complex spectrum into per-thread buffers that
the next call overwrites.  These tests pin the contract that makes that
safe: every returned amplitude array is its own memory, equals the plain
allocate-per-call computation bit for bit, and does not depend on what
another thread transforms at the same time.
"""

import sys
import threading

import numpy as np
import pytest

from repro.dsp import (
    batch_averaged_spectrum,
    batch_envelope_spectrum,
    batch_spectrum,
)
from repro.dsp.plan import fast_fft_len, get_plan

FS = 4096.0
BAND = (600.0, 1400.0)


def _reference_amplitudes(blocks, window="hann", sample_rate=FS):
    """The allocate-per-call formula: ``rfft(x * window)``, scaled."""
    plan = get_plan(blocks.shape[-1], window, sample_rate)
    amps = plan.amp_scale * np.abs(np.fft.rfft(blocks * plan.window, axis=-1))
    amps[..., 0] /= 2.0
    return amps


def _reference_averaged(x, n_averages=4, overlap=0.5):
    n = x.shape[-1]
    block = fast_fft_len(max(8, int(n // (1 + (n_averages - 1) * (1 - overlap)))))
    step = max(1, int(block * (1 - overlap)))
    starts = list(range(0, n - block + 1, step))[:n_averages]
    segs = x[:, np.add.outer(np.asarray(starts), np.arange(block))]
    return _reference_amplitudes(segs).mean(axis=1)


def _reference_envelope(x, band=BAND, sample_rate=FS):
    n = x.shape[-1]
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    idx = np.flatnonzero((freqs >= band[0]) & (freqs < band[1]))
    k0, k1 = int(idx[0]), int(idx[-1]) + 1
    m = k1 - k0
    spec = np.fft.rfft(x, axis=-1)[:, k0:k1]
    weights = np.full(m, 2.0)
    if k0 == 0:
        weights[0] = 1.0
    if n % 2 == 0 and k1 == n // 2 + 1:
        weights[-1] = 1.0
    env = np.abs(np.fft.ifft(spec * weights, axis=-1) * (m / n))
    env = env - env.mean(axis=-1, keepdims=True)
    return _reference_amplitudes(env, sample_rate=sample_rate * m / n)


def _inputs(seed, rows=3, n=2048):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / FS
    tone = np.sin(2 * np.pi * 1000.0 * t) * (1 + 0.5 * np.sin(2 * np.pi * 37.0 * t))
    return rng.normal(size=(rows, n)) + tone


KERNELS = {
    "plan": (
        lambda x: get_plan(x.shape[-1], "hann", FS).amplitudes(x),
        _reference_amplitudes,
    ),
    "full": (lambda x: batch_spectrum(x, FS).amps, _reference_amplitudes),
    "averaged": (
        lambda x: batch_averaged_spectrum(x, FS).amps,
        _reference_averaged,
    ),
    "envelope": (
        lambda x: batch_envelope_spectrum(x, FS, BAND).amps,
        _reference_envelope,
    ),
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_amplitudes_match_plain_rfft_bit_for_bit(kernel):
    fast, reference = KERNELS[kernel]
    for seed, n in ((0, 2048), (1, 1000), (2, 4096)):
        x = _inputs(seed, n=n)
        assert np.array_equal(fast(x), reference(x))


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_earlier_result_survives_later_calls(kernel):
    fast, reference = KERNELS[kernel]
    a = _inputs(10)
    amps_a = fast(a)
    kept = amps_a.copy()
    # Same geometry, then a larger and a smaller one: each reuses (or
    # grows) the same scratch.
    for b in (_inputs(11), _inputs(12, rows=5, n=4096), _inputs(13, rows=1, n=512)):
        amps_b = fast(b)
        assert not np.shares_memory(amps_a, amps_b)
    assert np.array_equal(amps_a, kept)
    assert np.array_equal(amps_a, reference(a))


def test_scalar_rows_do_not_alias_scratch():
    a, b = _inputs(20), _inputs(21)
    spec_a = batch_spectrum(a, FS).row(0)
    kept = spec_a.amps.copy()
    batch_spectrum(b, FS)
    assert np.array_equal(spec_a.amps, kept)


def test_request_over_the_scratch_bound_matches_plain_rfft():
    # 65 x 32768 float64 windowed blocks exceed the 16 MB scratch bound.
    big = np.random.default_rng(40).normal(size=(65, 32768))
    amps = get_plan(big.shape[-1], "hann", FS).amplitudes(big)
    assert np.array_equal(amps, _reference_amplitudes(big))


def test_threads_match_serial_run():
    inputs = [_inputs(30 + i, rows=2, n=2048 + 512 * i) for i in range(4)]
    serial = [[KERNELS[k][0](x) for k in sorted(KERNELS)] for x in inputs]
    results: dict[int, list[list[np.ndarray]]] = {}
    errors: list[BaseException] = []

    def work(i):
        try:
            results[i] = [
                [KERNELS[k][0](inputs[i]) for k in sorted(KERNELS)] for _ in range(15)
            ]
        except BaseException as exc:  # surfaced by the main thread below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    for i, runs in results.items():
        for run in runs:
            for got, want in zip(run, serial[i]):
                assert np.array_equal(got, want)
    assert sorted(results) == list(range(len(inputs)))
