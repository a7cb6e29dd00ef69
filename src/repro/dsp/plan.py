"""Cached FFT plans: window, gain correction and bin grid per geometry.

Every windowed spectrum needs the same support arrays — the window
itself, its coherent gain, the rfft bin frequencies and the one-sided
amplitude scale.  The DC hot path computes hundreds of same-shaped
spectra per scan, and rebuilding ``np.hanning(32768)`` (and the bin
grid) on each call is a measurable fraction of that path, so plans are
built once per ``(n, window, sample_rate)`` key and reused.

A plan is immutable: its arrays are marked read-only so the many
:class:`~repro.dsp.fft.Spectrum` instances sharing one ``freqs`` array
cannot corrupt each other.

The windowed input and the complex spectrum of each transform are
scratch: they go into per-thread work buffers reused across calls, since
a fresh multi-MB array costs about as much in page faults as the FFT
itself.  Only the returned amplitudes are freshly allocated.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from repro.common.errors import MprosError

#: Plans are tiny relative to waveforms, but the cache is still bounded
#: so pathological callers (randomized block lengths) cannot grow it
#: without limit.  Eviction is FIFO over insertion order.
_MAX_PLANS = 64

_PLANS: dict[tuple[int, str, float], "FftPlan"] = {}

#: A scratch request larger than this is allocated per call, so one odd
#: geometry cannot pin memory for the life of a thread.
_MAX_WORK_BYTES = 16 << 20

_WORK = threading.local()


def work_buffer(shape: tuple[int, ...], dtype: type) -> np.ndarray:
    """A C-contiguous scratch array of ``shape``, reused by this thread.

    There is one buffer per dtype per thread; the next request for the
    same dtype overwrites it, so callers consume the contents before
    asking again and never return the buffer itself.
    """
    size = math.prod(shape)
    dt = np.dtype(dtype)
    if size * dt.itemsize > _MAX_WORK_BYTES:
        return np.empty(shape, dt)
    buffers = getattr(_WORK, "buffers", None)
    if buffers is None:
        buffers = _WORK.buffers = {}
    flat = buffers.get(dt)
    if flat is None or flat.size < size:
        flat = buffers[dt] = np.empty(size, dt)
    return flat[:size].reshape(shape)


@dataclass(frozen=True)
class FftPlan:
    """Support arrays for one spectrum geometry.

    Attributes
    ----------
    n:
        Block length in samples.
    window_name:
        ``"hann"`` or ``"rect"``.
    sample_rate:
        Source sampling rate in Hz.
    window:
        The window samples, shape (n,), read-only.
    coherent_gain:
        ``window.sum() / n`` — amplitude correction denominator.
    freqs:
        rfft bin frequencies, shape (n // 2 + 1,), read-only.
    amp_scale:
        One-sided peak-equivalent amplitude scale ``2 / (n * cg)``.
    """

    n: int
    window_name: str
    sample_rate: float
    window: np.ndarray
    coherent_gain: float
    freqs: np.ndarray
    amp_scale: float

    def amplitudes(self, blocks: np.ndarray) -> np.ndarray:
        """Window-corrected single-sided amplitudes of ``(..., n)`` blocks.

        The same math as :func:`repro.dsp.fft.spectrum` applied along
        the last axis: a pure sine of amplitude A shows a peak of ≈A.
        ``blocks`` may be any strided view; the result is a fresh array.
        """
        windowed = work_buffer(blocks.shape, np.float64)
        np.multiply(blocks, self.window, out=windowed)
        spec = work_buffer(blocks.shape[:-1] + (self.n // 2 + 1,), np.complex128)
        np.fft.rfft(windowed, axis=-1, out=spec)
        amps = np.abs(spec)
        amps *= self.amp_scale
        amps[..., 0] /= 2.0  # DC is not doubled
        return amps


def fast_fft_len(n: int) -> int:
    """The largest 13-smooth length <= ``n`` (min 8).

    pocketfft falls back to Rader/Bluestein-style handling for large
    prime factors, making e.g. a 13107-point transform (factor 257) as
    slow as a 32768-point one, while 13104 (2^4·3^2·7·13) runs ~4x
    faster.  Welch segmentation trims its nominal block to the nearest
    fast length — 13-smooth numbers are dense, so the resolution change
    stays well under 0.1 %.
    """
    if n < 8:
        return 8

    def _smooth(m: int) -> bool:
        for p in (2, 3, 5, 7, 11, 13):
            while m % p == 0:
                m //= p
        return m == 1

    m = n
    while not _smooth(m):
        m -= 1
    return m


def get_plan(n: int, window: str = "hann", sample_rate: float = 1.0) -> FftPlan:
    """The (cached) plan for one ``(n, window, sample_rate)`` geometry."""
    if n < 8:
        raise MprosError(f"need a block of >= 8 samples, got {n}")
    if sample_rate <= 0:
        raise MprosError(f"sample_rate must be positive, got {sample_rate}")
    key = (int(n), window, float(sample_rate))
    plan = _PLANS.get(key)
    if plan is not None:
        return plan
    if window == "hann":
        w = np.hanning(n)
    elif window == "rect":
        w = np.ones(n)
    else:
        raise MprosError(f"unknown window {window!r}")
    coherent_gain = w.sum() / n
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    w.flags.writeable = False
    freqs.flags.writeable = False
    plan = FftPlan(
        n=int(n),
        window_name=window,
        sample_rate=float(sample_rate),
        window=w,
        coherent_gain=float(coherent_gain),
        freqs=freqs,
        amp_scale=2.0 / (n * coherent_gain),
    )
    if len(_PLANS) >= _MAX_PLANS:
        _PLANS.pop(next(iter(_PLANS)))
    _PLANS[key] = plan
    return plan
