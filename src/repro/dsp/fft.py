"""Windowed FFT spectra and order tracking.

"Dynamic vibration signals must be acquired using high sampling rates
and complex spectrum and waveform analysis" (§2).  The DLI rulebase
reasons in *orders* — multiples of the machine's running speed — so the
spectrum type carries enough metadata to index by order.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.common.errors import MprosError
from repro.dsp.plan import fast_fft_len, get_plan


@dataclass(frozen=True)
class Spectrum:
    """A single-sided amplitude spectrum.

    Attributes
    ----------
    freqs:
        Bin center frequencies in Hz, shape (n_bins,).
    amps:
        Peak-equivalent amplitudes per bin (window-corrected), same shape.
    sample_rate:
        Source sampling rate in Hz.
    """

    freqs: np.ndarray
    amps: np.ndarray
    sample_rate: float

    def __post_init__(self) -> None:
        if self.freqs.shape != self.amps.shape:
            raise MprosError("freqs and amps must have the same shape")

    @property
    def resolution(self) -> float:
        """Bin width in Hz."""
        if len(self.freqs) < 2:
            return float("nan")
        return float(self.freqs[1] - self.freqs[0])

    def amplitude_at(self, freq: float, tolerance_bins: float = 2.0) -> float:
        """Peak amplitude within ±``tolerance_bins`` bins of ``freq``.

        Spectral peaks never land exactly on a bin (speed drifts,
        leakage), so rule evaluation searches a small neighbourhood —
        this mirrors how vibration expert systems pick peaks.
        """
        return self.amplitudes_at((freq,), tolerance_bins)[0]

    def amplitudes_at(
        self, freqs: Iterable[float], tolerance_bins: float | Iterable[float] = 2.0
    ) -> list[float]:
        """:meth:`amplitude_at` for many lines, with one gather of bins.

        A scalar tolerance applies to every line.  Bins are uniform, so
        only a small index window around each line can match: each
        line's window is read from the spectrum in one indexing call
        for all lines, and plain-float work picks its peak, instead of a
        mask over the whole spectrum per line (rule evaluation reads
        dozens of lines per analysis).
        """
        freqs = freqs.tolist() if isinstance(freqs, np.ndarray) else [float(f) for f in freqs]
        if np.ndim(tolerance_bins) == 0:
            tols = [float(tolerance_bins)] * len(freqs)
        else:
            tols = [float(t) for t in tolerance_bins]
        top = self.freqs[-1]
        res = self.resolution
        if not (math.isfinite(res) and res > 0):
            # Fewer than two bins: no grid to index, so mask.
            out = []
            for freq, tol in zip(freqs, tols):
                mask = np.abs(self.freqs - freq) <= tol * res
                in_range = 0 <= freq <= top and mask.any()
                out.append(float(self.amps[mask].max()) if in_range else 0.0)
            return out
        size = self.freqs.size
        windows: list[tuple[int, int, float, float] | None] = []
        idx: list[int] = []
        for freq, tol in zip(freqs, tols):
            if freq < 0 or freq > top:
                windows.append(None)
                continue
            half_width = tol * res
            lo = max(math.floor((freq - half_width) / res) - 1, 0)
            hi = min(math.ceil((freq + half_width) / res) + 2, size)
            if hi <= lo:
                windows.append(None)
                continue
            windows.append((len(idx), len(idx) + hi - lo, freq, half_width))
            idx.extend(range(lo, hi))
        bins = np.array(idx, dtype=np.intp)
        bin_f = self.freqs.take(bins).tolist()
        bin_a = self.amps.take(bins).tolist()
        out = []
        for window in windows:
            if window is None:
                out.append(0.0)
                continue
            i0, i1, freq, half_width = window
            hits = [
                a for f, a in zip(bin_f[i0:i1], bin_a[i0:i1]) if abs(f - freq) <= half_width
            ]
            # NaN propagates, as numpy's max would.
            if not hits:
                out.append(0.0)
            elif any(map(math.isnan, hits)):
                out.append(math.nan)
            else:
                out.append(max(hits))
        return out

    def band_amplitude(self, lo: float, hi: float) -> float:
        """RSS amplitude over the [lo, hi) Hz band."""
        mask = (self.freqs >= lo) & (self.freqs < hi)
        return float(np.sqrt(np.sum(self.amps[mask] ** 2)))

    def total_amplitude(self) -> float:
        """RSS amplitude over the whole spectrum, excluding the DC
        mainlobe (a Hann-windowed offset leaks into the first two
        bins, so bins 0..2 are skipped)."""
        return float(np.sqrt(np.sum(self.amps[3:] ** 2)))


def spectrum(signal: np.ndarray, sample_rate: float, window: str = "hann") -> Spectrum:
    """Single-block windowed amplitude spectrum.

    Amplitudes are corrected for window gain so a pure sine of
    amplitude A produces a peak of ≈A at its frequency.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1 or x.size < 8:
        raise MprosError(f"need a 1-D signal of >= 8 samples, got shape {x.shape}")
    if sample_rate <= 0:
        raise MprosError(f"sample_rate must be positive, got {sample_rate}")
    plan = get_plan(x.size, window, sample_rate)
    return Spectrum(freqs=plan.freqs, amps=plan.amplitudes(x), sample_rate=sample_rate)


def averaged_spectrum(
    signal: np.ndarray,
    sample_rate: float,
    n_averages: int = 4,
    overlap: float = 0.5,
    window: str = "hann",
) -> Spectrum:
    """Welch-style averaged amplitude spectrum.

    Splits the signal into ``n_averages`` overlapping blocks, averages
    the block amplitude spectra — the standard vibration-analysis
    practice to stabilize noise floors before rule evaluation.
    """
    x = np.asarray(signal, dtype=np.float64)
    if not 0.0 <= overlap < 1.0:
        raise MprosError(f"overlap must be in [0, 1), got {overlap}")
    if n_averages < 1:
        raise MprosError("n_averages must be >= 1")
    block = int(x.size // (1 + (n_averages - 1) * (1 - overlap)))
    block = max(8, block)
    if block > x.size:
        raise MprosError(f"signal too short ({x.size}) for {n_averages} averages")
    block = fast_fft_len(block)
    step = max(1, int(block * (1 - overlap)))
    # All segments go through one stacked FFT instead of a Python loop
    # of per-segment Spectrum objects.
    segs = welch_segments(x, block, step, n_averages)
    plan = get_plan(block, window, sample_rate)
    amps = plan.amplitudes(segs).mean(axis=0)
    return Spectrum(freqs=plan.freqs, amps=amps, sample_rate=sample_rate)


def welch_segments(
    x: np.ndarray, block: int, step: int, n_averages: int
) -> np.ndarray:
    """The first ``n_averages`` segments of ``block`` samples, ``step``
    apart, along the last axis: a ``(..., n_seg, block)`` strided view,
    not a copy (shared with the batched implementation so both split
    signals identically).  Needs ``block <= x.shape[-1]``."""
    windows = np.lib.stride_tricks.sliding_window_view(x, block, axis=-1)
    return windows[..., ::step, :][..., :n_averages, :]


def estimate_shaft_speed(
    spec: Spectrum, nominal_hz: float, search_pct: float = 3.0
) -> float:
    """Refine the running speed from the 1x spectral peak.

    Real machines drift around nameplate speed (slip varies with
    load), so order-based rules first locate the actual 1x peak within
    ±``search_pct`` % of nominal.  Parabolic interpolation over the
    peak bin gives sub-bin resolution.  Falls back to ``nominal_hz``
    when no distinct peak exists in the window.
    """
    if nominal_hz <= 0:
        raise MprosError(f"nominal_hz must be positive, got {nominal_hz}")
    if not 0 < search_pct < 50:
        raise MprosError(f"search_pct must be in (0, 50), got {search_pct}")
    half = nominal_hz * search_pct / 100.0
    # The bins in [nominal - half, nominal + half] of the sorted grid: a
    # slice, not a mask over the whole spectrum.
    i0 = int(np.searchsorted(spec.freqs, nominal_hz - half, side="left"))
    i1 = int(np.searchsorted(spec.freqs, nominal_hz + half, side="right"))
    if i1 - i0 < 3:
        return float(nominal_hz)
    floor = 3.0 * window_median(spec.amps[i0:i1])
    # The window is a few dozen bins: plain floats from here on.
    window = spec.amps[i0:i1].tolist()
    freqs = spec.freqs[i0:i1].tolist()
    # Candidate peaks: local maxima standing clear of the window floor
    # (edge bins compare one-sided, so a peak at the window boundary —
    # the drift-at-the-limit case — still counts).
    padded = [-math.inf, *window, -math.inf]
    candidates = [
        i
        for i, a in enumerate(window)
        if a >= padded[i] and a >= padded[i + 2] and a > floor
    ]
    if not candidates:
        return float(nominal_hz)  # no distinct peak: hold nominal
    # Of the prominent peaks, 1x is the one nearest nameplate speed —
    # rotor-bar sidebands can out-amplitude a healthy 1x, but they sit
    # symmetrically further out.
    peak = i0 + min(candidates, key=lambda i: abs(freqs[i] - nominal_hz))
    if 0 < peak < spec.freqs.size - 1:
        # Parabolic (quadratic) peak interpolation.
        a, b, c = spec.amps[peak - 1 : peak + 2].tolist()
        denom = a - 2 * b + c
        delta = 0.5 * (a - c) / denom if abs(denom) > 1e-18 else 0.0
        delta = min(max(delta, -0.5), 0.5)
    else:
        delta = 0.0
    return float(spec.freqs[peak] + delta * spec.resolution)


def window_median(values: np.ndarray) -> float:
    """``float(np.median(values))`` of a 1-D float array, from one
    partition call: the same middle element(s), the same two-element
    mean, NaN when any value is NaN.  np.median's own wrapper costs
    several times the selection on windows of a few hundred bins."""
    n = values.size
    if n == 0:
        return math.nan
    k = n // 2
    part = np.partition(values, [k - 1, k, n - 1] if n % 2 == 0 else [k, n - 1])
    if math.isnan(part[-1]):
        return math.nan
    if n % 2:
        return float(part[k])
    return float(np.add.reduce(part[k - 1 : k + 1]) / 2)


def order_amplitudes(
    spec: Spectrum, shaft_hz: float, max_order: int = 10, tolerance_bins: float = 2.0
) -> np.ndarray:
    """Amplitudes at integer multiples (orders) of the shaft speed.

    Returns shape (max_order,): index 0 is 1x running speed, index 1 is
    2x, etc.  This is the feature vector most DLI-style rules consume
    (imbalance shows at 1x, misalignment at 2x, looseness as a raft of
    harmonics...).
    """
    if shaft_hz <= 0:
        raise MprosError(f"shaft_hz must be positive, got {shaft_hz}")
    orders = np.arange(1, max_order + 1) * shaft_hz
    return np.array(spec.amplitudes_at(orders, tolerance_bins))
