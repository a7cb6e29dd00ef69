"""Windowed FFT spectra and order tracking.

"Dynamic vibration signals must be acquired using high sampling rates
and complex spectrum and waveform analysis" (§2).  The DLI rulebase
reasons in *orders* — multiples of the machine's running speed — so the
spectrum type carries enough metadata to index by order.
"""

from __future__ import annotations

import math
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
        if freq < 0 or freq > self.freqs[-1]:
            return 0.0
        res = self.resolution
        half_width = tolerance_bins * res
        if not np.isfinite(res) or res <= 0:
            mask = np.abs(self.freqs - freq) <= half_width
            if not mask.any():
                return 0.0
            return float(self.amps[mask].max())
        # Bins are uniform, so only a small index window can match —
        # O(tolerance) plain-float work instead of a mask over the whole
        # spectrum (rule evaluation makes dozens of these lookups per
        # analysis).
        lo = max(math.floor((freq - half_width) / res) - 1, 0)
        hi = min(math.ceil((freq + half_width) / res) + 2, self.freqs.size)
        if hi <= lo:
            return 0.0
        hits = [
            a
            for f, a in zip(self.freqs[lo:hi].tolist(), self.amps[lo:hi].tolist())
            if abs(f - freq) <= half_width
        ]
        if not hits:
            return 0.0
        # NaN propagates, as numpy's max would.
        return math.nan if any(map(math.isnan, hits)) else max(hits)

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
    mask = (spec.freqs >= nominal_hz - half) & (spec.freqs <= nominal_hz + half)
    idx = np.flatnonzero(mask)
    if idx.size < 3:
        return float(nominal_hz)
    window = spec.amps[idx]
    floor = 3.0 * float(np.median(window))
    # Candidate peaks: local maxima standing clear of the window floor
    # (edge bins compare one-sided, so a peak at the window boundary —
    # the drift-at-the-limit case — still counts).
    padded = np.concatenate(([-np.inf], window, [-np.inf]))
    is_peak = (window >= padded[:-2]) & (window >= padded[2:])
    candidates = idx[is_peak & (window > floor)]
    if candidates.size == 0:
        return float(nominal_hz)  # no distinct peak: hold nominal
    # Of the prominent peaks, 1x is the one nearest nameplate speed —
    # rotor-bar sidebands can out-amplitude a healthy 1x, but they sit
    # symmetrically further out.
    peak = int(candidates[np.argmin(np.abs(spec.freqs[candidates] - nominal_hz))])
    if 0 < peak < spec.freqs.size - 1:
        # Parabolic (quadratic) peak interpolation.
        a, b, c = spec.amps[peak - 1], spec.amps[peak], spec.amps[peak + 1]
        denom = a - 2 * b + c
        delta = 0.5 * (a - c) / denom if abs(denom) > 1e-18 else 0.0
        delta = float(np.clip(delta, -0.5, 0.5))
    else:
        delta = 0.0
    return float(spec.freqs[peak] + delta * spec.resolution)


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
    return np.array([spec.amplitude_at(f, tolerance_bins) for f in orders])
