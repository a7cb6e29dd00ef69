"""Batched DSP: one vectorized pass over all channels of a DC scan.

The paper's DC budget is performance-driven ("4-channel DSP at greater
than 40 kHz sampling rates", §3) and a fleet-scale MPROS run spends most
of its time in per-channel FFT/envelope/cepstrum loops.  This module
computes the same quantities as :mod:`repro.dsp.fft`,
:mod:`repro.dsp.envelope` and :mod:`repro.dsp.cepstrum` but over a
``(m, n)`` stack of waveforms in single NumPy calls, sharing the cached
:class:`~repro.dsp.plan.FftPlan` support arrays.

Two access layers sit on top of the raw batch functions:

* :class:`BatchSpectralCache` — memoizes full / averaged / envelope
  spectra for a whole stack of waveforms, computed lazily (the first
  row that needs a product triggers one batched transform for *all*
  rows).
* :class:`SpectralView` — a single row's facade over a cache.  Threaded
  through ``SourceContext.spectra`` so knowledge sources (DLI rule
  frames in particular) can reuse spectra instead of recomputing them
  per rule frame and per machine.

Every batched routine splits, windows and scales its input exactly as
the scalar routine does, so a row of a batch result equals the scalar
result on that row's waveform (the property tests in
``tests/dsp/test_batch_properties.py`` pin this down).
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from dataclasses import dataclass, field
from typing import Any, TypeVar

import numpy as np

from repro.common.errors import MprosError
from repro.dsp.features import kurtosis_excess
from repro.dsp.fft import Spectrum, welch_segments
from repro.dsp.plan import fast_fft_len, get_plan, work_buffer


T = TypeVar("T")


def _as_batch(signals: np.ndarray) -> np.ndarray:
    x = np.asarray(signals, dtype=np.float64)
    if x.ndim == 1:
        x = x[np.newaxis, :]
    if x.ndim != 2 or x.shape[-1] < 8:
        raise MprosError(
            f"need a (m, n>=8) batch of signals, got shape {x.shape}"
        )
    return x


@dataclass(frozen=True)
class SpectrumBatch:
    """Single-sided amplitude spectra for a stack of waveforms.

    Attributes
    ----------
    freqs:
        Shared bin center frequencies in Hz, shape (n_bins,).
    amps:
        Window-corrected amplitudes, shape (m, n_bins).
    sample_rate:
        Source sampling rate in Hz.
    """

    freqs: np.ndarray
    amps: np.ndarray
    sample_rate: float

    def __post_init__(self) -> None:
        if self.amps.ndim != 2 or self.amps.shape[-1] != self.freqs.shape[-1]:
            raise MprosError("amps must be (m, n_bins) matching freqs")

    def __len__(self) -> int:
        return int(self.amps.shape[0])

    def row(self, i: int) -> Spectrum:
        """The i-th waveform's spectrum as a scalar :class:`Spectrum`."""
        return Spectrum(
            freqs=self.freqs, amps=self.amps[i], sample_rate=self.sample_rate
        )


def batch_spectrum(
    signals: np.ndarray, sample_rate: float, window: str = "hann"
) -> SpectrumBatch:
    """Windowed amplitude spectra of all rows in one FFT call."""
    x = _as_batch(signals)
    if sample_rate <= 0:
        raise MprosError(f"sample_rate must be positive, got {sample_rate}")
    plan = get_plan(x.shape[-1], window, sample_rate)
    return SpectrumBatch(
        freqs=plan.freqs, amps=plan.amplitudes(x), sample_rate=sample_rate
    )


def batch_averaged_spectrum(
    signals: np.ndarray,
    sample_rate: float,
    n_averages: int = 4,
    overlap: float = 0.5,
    window: str = "hann",
) -> SpectrumBatch:
    """Welch-style averaged spectra for all rows.

    Splits every row into the same segments as the scalar
    :func:`repro.dsp.fft.averaged_spectrum` (identical block/step
    arithmetic) and pushes the whole ``(m, n_seg, block)`` stack
    through one FFT.
    """
    x = _as_batch(signals)
    if not 0.0 <= overlap < 1.0:
        raise MprosError(f"overlap must be in [0, 1), got {overlap}")
    if n_averages < 1:
        raise MprosError("n_averages must be >= 1")
    n = x.shape[-1]
    block = max(8, int(n // (1 + (n_averages - 1) * (1 - overlap))))
    if block > n:
        raise MprosError(f"signal too short ({n}) for {n_averages} averages")
    block = fast_fft_len(block)
    step = max(1, int(block * (1 - overlap)))
    segs = welch_segments(x, block, step, n_averages)  # (m, n_seg, block)
    plan = get_plan(block, window, sample_rate)
    amps = plan.amplitudes(segs, scratch=True).mean(axis=1)
    return SpectrumBatch(freqs=plan.freqs, amps=amps, sample_rate=sample_rate)


def batch_envelope(
    signals: np.ndarray,
    sample_rate: float,
    band: tuple[float, float] | None = None,
) -> np.ndarray:
    """Amplitude envelopes of all rows, optionally band-passed first.

    Mirrors :func:`repro.dsp.envelope.envelope` along the last axis:
    frequency-domain band-pass, then the Hilbert analytic-signal
    construction.
    """
    x = _as_batch(signals)
    n = x.shape[-1]
    if band is not None:
        lo, hi = band
        if not 0 <= lo < hi:
            raise MprosError(f"need 0 <= lo < hi, got {band}")
        spec = np.fft.rfft(x, axis=-1)
        freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
        spec[:, (freqs < lo) | (freqs >= hi)] = 0.0
        x = np.fft.irfft(spec, n=n, axis=-1)
    full = np.fft.fft(x, axis=-1)
    h = np.zeros(n)
    h[0] = 1.0
    if n % 2 == 0:
        h[n // 2] = 1.0
        h[1 : n // 2] = 2.0
    else:
        h[1 : (n + 1) // 2] = 2.0
    return np.abs(np.fft.ifft(full * h, axis=-1))


def batch_envelope_spectrum(
    signals: np.ndarray,
    sample_rate: float,
    band: tuple[float, float] | None = None,
) -> SpectrumBatch:
    """Spectra of the (mean-removed) envelopes of all rows.

    Band-limited demodulation uses the complex-demodulation shortcut
    (how hardware envelope analyzers work): the analytic signal of a
    band-passed waveform has spectral support only inside the band, so
    the complex envelope is reconstructed with one small inverse FFT
    over the band's bins instead of three full-length transforms.  The
    returned spectrum covers the same frequency span as the envelope's
    information content (half the band width) at the same resolution
    as the full-rate computation — defect-line amplitudes match.
    """
    x = _as_batch(signals)
    n = x.shape[-1]
    if sample_rate <= 0:
        raise MprosError(f"sample_rate must be positive, got {sample_rate}")
    if band is not None:
        lo, hi = band
        if not 0 <= lo < hi:
            raise MprosError(f"need 0 <= lo < hi, got {band}")
        # The bins in [lo, hi) of the sorted grid: a slice, not a mask.
        freqs = get_plan(n, "hann", sample_rate).freqs
        k0 = int(np.searchsorted(freqs, lo, side="left"))
        k1 = int(np.searchsorted(freqs, hi, side="left"))
        m = k1 - k0
        if m >= 8:
            rows = x.shape[0]
            # A view of scratch, weighted in place below.
            full = work_buffer((rows, n // 2 + 1), np.complex128)
            spec = np.fft.rfft(x, axis=-1, out=full)[:, k0:k1]
            # Analytic-signal weights: positive frequencies doubled, DC
            # and Nyquist (if inside the band) not.
            weights = np.full(m, 2.0)
            if k0 == 0:
                weights[0] = 1.0
            if n % 2 == 0 and k1 == n // 2 + 1:
                weights[-1] = 1.0
            spec *= weights
            # ifft over the band alone yields the complex envelope at
            # the decimated rate; the frequency shift to baseband is a
            # pure phase ramp and cancels in the magnitude.  The
            # envelope has its own scratch: the spectrum below takes
            # the shared one.
            analytic = np.fft.ifft(
                spec, axis=-1, out=work_buffer((rows, m), np.complex128, "envelope")
            )
            analytic *= m / n
            env = np.abs(analytic, out=work_buffer((rows, m), np.float64, "envelope"))
            env -= env.mean(axis=-1, keepdims=True)
            return batch_spectrum(env, sample_rate * m / n, window="hann")
    env = batch_envelope(x, sample_rate, band)
    env -= env.mean(axis=-1, keepdims=True)
    return batch_spectrum(env, sample_rate, window="hann")


def batch_cepstrum(
    signals: np.ndarray,
    n_coeffs: int | None = None,
    floor_db: float = -120.0,
) -> np.ndarray:
    """Real cepstra of all rows; floor is per-row like the scalar path."""
    x = _as_batch(signals)
    mag = np.abs(np.fft.rfft(x, axis=-1))
    peak = mag.max(axis=-1, keepdims=True)
    floor = 10.0 ** (floor_db / 20.0) * np.where(peak > 0, peak, 1.0)
    log_mag = np.log(np.maximum(mag, floor))
    ceps = np.fft.irfft(log_mag, n=x.shape[-1], axis=-1)
    if n_coeffs is not None:
        if n_coeffs < 1:
            raise MprosError("n_coeffs must be >= 1")
        ceps = ceps[:, :n_coeffs]
    return ceps


def batch_scalar_features(signals: np.ndarray) -> dict[str, np.ndarray]:
    """The per-row scalar bundle of :func:`repro.dsp.features.scalar_features`."""
    from repro.dsp.features import crest_factor, peak_amplitude, rms

    x = _as_batch(signals)
    return {
        "peak": np.asarray(peak_amplitude(x)),
        "rms": np.asarray(rms(x)),
        "std": np.std(x, axis=-1),
        "crest": np.asarray(crest_factor(x)),
        "kurtosis": np.asarray(kurtosis_excess(x)),
        "mean": np.mean(x, axis=-1),
    }


@dataclass
class BatchSpectralCache:
    """Lazily-computed shared spectra for one stack of waveforms.

    The DLI rulebase touches the same spectral products many times per
    analysis (each strength function historically recomputed the full
    spectrum) and a DC scan runs that analysis once per machine.  The
    cache computes each product once — batched across *all* rows — the
    first time any row asks for it.
    """

    waveforms: np.ndarray
    sample_rate: float
    _full: SpectrumBatch | None = field(default=None, repr=False)
    _averaged: dict[tuple[int, float, str], SpectrumBatch] = field(
        default_factory=dict, repr=False
    )
    _env: dict[tuple[float, float] | None, SpectrumBatch] = field(
        default_factory=dict, repr=False
    )
    _kurtosis: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.waveforms = _as_batch(self.waveforms)
        if self.sample_rate <= 0:
            raise MprosError(
                f"sample_rate must be positive, got {self.sample_rate}"
            )

    def __len__(self) -> int:
        return int(self.waveforms.shape[0])

    def full(self) -> SpectrumBatch:
        """Full-resolution Hann spectra of all rows."""
        if self._full is None:
            self._full = batch_spectrum(self.waveforms, self.sample_rate)
        return self._full

    def averaged(
        self, n_averages: int = 4, overlap: float = 0.5, window: str = "hann"
    ) -> SpectrumBatch:
        """Welch-averaged spectra of all rows."""
        key = (int(n_averages), float(overlap), window)
        batch = self._averaged.get(key)
        if batch is None:
            batch = batch_averaged_spectrum(
                self.waveforms, self.sample_rate, n_averages, overlap, window
            )
            self._averaged[key] = batch
        return batch

    def envelope_spectrum(
        self, band: tuple[float, float] | None = None
    ) -> SpectrumBatch:
        """Envelope spectra of all rows for one demodulation band."""
        key = None if band is None else (float(band[0]), float(band[1]))
        batch = self._env.get(key)
        if batch is None:
            batch = batch_envelope_spectrum(self.waveforms, self.sample_rate, band)
            self._env[key] = batch
        return batch

    def kurtosis(self) -> np.ndarray:
        """Excess kurtosis of all rows, shape (m,), in one pass over the
        stack; row ``i`` equals ``kurtosis_excess(waveforms[i])``."""
        if self._kurtosis is None:
            self._kurtosis = np.atleast_1d(kurtosis_excess(self.waveforms))
        return self._kurtosis

    def view(self, row: int) -> "SpectralView":
        """A single row's facade over this cache."""
        if not 0 <= row < len(self):
            raise MprosError(f"row {row} out of range for {len(self)} waveforms")
        return SpectralView(cache=self, row=row)


@dataclass(frozen=True)
class SpectralView:
    """One machine's window onto a :class:`BatchSpectralCache`.

    Knowledge sources receive this on ``SourceContext.spectra``; asking
    for ``full()`` / ``averaged()`` / ``envelope_spectrum(band)``
    returns this row's :class:`~repro.dsp.fft.Spectrum` while sharing
    the batched transform with every other machine in the scan.
    :meth:`derived` memoizes what the readers of one analysis compute
    from those spectra (the rule frames' line amplitudes, say).
    """

    cache: BatchSpectralCache
    row: int
    _derived: dict[Hashable, Any] = field(
        default_factory=dict, compare=False, repr=False
    )

    @classmethod
    def from_waveform(cls, waveform: np.ndarray, sample_rate: float) -> "SpectralView":
        """A standalone view over a single waveform (scalar fallback)."""
        return cls(
            cache=BatchSpectralCache(
                waveforms=np.asarray(waveform, dtype=np.float64)[np.newaxis, :],
                sample_rate=sample_rate,
            ),
            row=0,
        )

    @property
    def sample_rate(self) -> float:
        return self.cache.sample_rate

    def full(self) -> Spectrum:
        return self.cache.full().row(self.row)

    def averaged(
        self, n_averages: int = 4, overlap: float = 0.5, window: str = "hann"
    ) -> Spectrum:
        return self.cache.averaged(n_averages, overlap, window).row(self.row)

    def envelope_spectrum(
        self, band: tuple[float, float] | None = None
    ) -> Spectrum:
        return self.cache.envelope_spectrum(band).row(self.row)

    def kurtosis(self) -> float:
        return float(self.cache.kurtosis()[self.row])

    def derived(self, key: Hashable, compute: Callable[[], T]) -> T:
        """``compute()``, run once per ``key`` for this view."""
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = compute()
            return value
