"""The standard vibration rulebase.

One frame per vibration-visible FMEA failure mode, measuring the
textbook signature the synthesizer produces (and real machines show):
the rule content is ours, the mechanism is §6.1's.

Strength conventions: each strength function returns ≈0 on a healthy
machine and ≈1 at a severe defect, using baseline-relative amplitudes
so the rules transfer across machines with different absolute levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.dli.frames import RuleFrame, load_sensitizer
from repro.dsp.batch import SpectralView
from repro.dsp.envelope import envelope_spectrum
from repro.dsp.features import kurtosis_excess
from repro.dsp.fft import Spectrum, spectrum as _spectrum, window_median
from repro.plant.rotating import MachineKinematics

#: Harmonic orders (1x..8x) the looseness raft reads.
_ORDERS = np.arange(1, 9)


@dataclass(frozen=True)
class _Lines:
    """Every line amplitude the standard rulebase reads from the full
    and the averaged spectrum of one machine.

    Measured with one :meth:`~repro.dsp.fft.Spectrum.amplitudes_at`
    gather per spectrum; each value equals the rule's own
    ``amplitude_at`` read bit for bit.  Full spectrum, ±2 bins unless
    noted: ``one_x``, ``two_x``, ``half_x``, ``two_line`` and the
    pole-pass sidebands ``pp_upper`` / ``pp_lower`` (±1 bin).  Averaged
    spectrum, ±2 bins: ``orders`` (1x..8x) and, on geared machines, the
    mesh lines.  ``twice`` is :func:`_twice_shaft_vs_twice_line`'s
    (2x shaft, 2x line) attribution, which two frames read.
    """

    one_x: float
    two_x: float
    half_x: float
    two_line: float
    pp_upper: float
    pp_lower: float
    twice: tuple[float, float]
    orders: np.ndarray
    mesh: float = 0.0
    mesh_upper: float = 0.0
    mesh_lower: float = 0.0
    two_mesh: float = 0.0


def _measure_lines(spec: Spectrum, hires: Spectrum, k: MachineKinematics) -> _Lines:
    s = k.shaft_hz
    pp = max(k.pole_pass_hz, 0.5)
    one_x, two_x, half_x, two_line, pp_upper, pp_lower = hires.amplitudes_at(
        (s, 2 * s, 0.5 * s, 2 * k.line_hz, s + pp, s - pp), (2, 2, 2, 2, 1, 1)
    )
    freqs = (_ORDERS * s).tolist()
    if k.gear_teeth:
        mesh = k.gear_mesh_hz
        freqs += [mesh, mesh + s, mesh - s, 2 * mesh]
    averaged = spec.amplitudes_at(freqs, 2.0)
    return _Lines(
        one_x, two_x, half_x, two_line, pp_upper, pp_lower,
        _twice_shaft_vs_twice_line(hires, k, (two_x, two_line)),
        np.array(averaged[: _ORDERS.size]), *averaged[_ORDERS.size :],
    )


def _lines(
    spec: Spectrum,
    wave: np.ndarray,
    fs: float,
    k: MachineKinematics,
    view: SpectralView | None,
) -> _Lines:
    """The lines of one analysis, measured once and shared by its frames
    through the view (the scan-wide cache's full spectrum: one FFT per
    machine per scan).  The memo entry holds ``spec`` and ``k``, so
    their ids stay theirs while it exists.  Without a view, each call
    transforms ``wave`` itself."""
    if view is None:
        return _measure_lines(spec, _spectrum(wave, fs, window="hann"), k)
    *_, lines = view.derived(
        (_measure_lines, id(spec), id(k)),
        lambda: (spec, k, _measure_lines(spec, view.full(), k)),
    )
    return lines


def _twice_shaft_vs_twice_line(
    hires: Spectrum,
    k: MachineKinematics,
    separated: tuple[float, float] | None = None,
) -> tuple[float, float]:
    """Attribute the 2x region to misalignment (2x shaft) vs electrical
    (2x line).

    On a near-synchronous motor the two tones sit ~1-2 Hz apart, inside
    each other's window leakage.  The local peak decides ownership: the
    loser only keeps amplitude measured away from the winner's
    mainlobe.  Returns (amp at 2x shaft, amp at 2x line).  ``separated``
    is the pair of plain ±2-bin reads at those lines, when the caller
    has gathered them already.
    """
    f_mis = 2 * k.shaft_hz
    f_ph = 2 * k.line_hz
    res = hires.resolution
    if abs(f_mis - f_ph) > 6 * res:
        # Well separated: plain windowed measurements.
        if separated is None:
            separated = tuple(hires.amplitudes_at((f_mis, f_ph), 2))
        return separated
    lo = min(f_mis, f_ph) - 3 * res
    hi = max(f_mis, f_ph) + 3 * res
    # The bins in [lo, hi] of the sorted grid: a slice, not a mask over
    # the whole spectrum.  The loser's window below lies inside it.
    i0 = int(np.searchsorted(hires.freqs, lo, side="left"))
    i1 = int(np.searchsorted(hires.freqs, hi, side="right"))
    if i1 <= i0:
        return 0.0, 0.0
    freqs = hires.freqs[i0:i1]
    amps = hires.amps[i0:i1]
    peak_idx = int(np.argmax(amps))
    f_peak = float(freqs[peak_idx])
    peak_amp = float(amps[peak_idx])
    winner_is_mis = abs(f_peak - f_mis) <= abs(f_peak - f_ph)
    # Loser amplitude: its window, excluding the winner's mainlobe.
    loser_f = f_ph if winner_is_mis else f_mis
    loser_mask = (np.abs(freqs - loser_f) <= 2 * res) & (
        np.abs(freqs - f_peak) > 2.5 * res
    )
    loser_amp = float(amps[loser_mask].max()) if loser_mask.any() else 0.0
    if winner_is_mis:
        return peak_amp, loser_amp
    return loser_amp, peak_amp

#: Healthy-machine reference amplitudes at 1x/2x/3x (matches the
#: synthesizer's baseline; a fielded system would learn these from
#: baseline surveys).
BASELINE_1X = 0.05
BASELINE_2X = 0.02
BASELINE_3X = 0.01


def _imbalance_strength(
    spec: Spectrum,
    wave: np.ndarray,
    fs: float,
    k: MachineKinematics,
    view: SpectralView | None = None,
) -> float:
    """Excess 1x amplitude, requiring 1x to dominate 2x (else it's more
    likely misalignment/looseness).

    Measured on the full-resolution spectrum with a tight window so
    rotor-bar pole-pass sidebands (±1-2 Hz off 1x) do not inflate the
    1x reading.
    """
    lines = _lines(spec, wave, fs, k, view)
    a1, a2 = lines.one_x, lines.two_x
    excess = max(0.0, a1 - 2 * BASELINE_1X)
    if a1 / (a2 + 1e-9) < 2.0:
        excess *= 0.3
    return excess / 0.5


def _misalignment_strength(
    spec: Spectrum,
    wave: np.ndarray,
    fs: float,
    k: MachineKinematics,
    view: SpectralView | None = None,
) -> float:
    """Excess 2x with 2x/1x ratio above the healthy ratio.

    High-resolution, tight-window measurement: 2x shaft speed on a
    near-synchronous motor sits ~1.4 Hz from 2x line frequency, so a
    wide window would swallow the phase-imbalance signature.
    """
    lines = _lines(spec, wave, fs, k, view)
    a1 = lines.one_x
    a2, _ = lines.twice
    excess = max(0.0, a2 - 2 * BASELINE_2X)
    if a2 / (a1 + 1e-9) < 0.8:
        excess *= 0.3
    return excess / 0.4


def _looseness_strength(
    spec: Spectrum,
    wave: np.ndarray,
    fs: float,
    k: MachineKinematics,
    view: SpectralView | None = None,
) -> float:
    """Harmonic raft (orders 3..8) plus the ½x subharmonic.

    Looseness is *broadband*: many harmonics elevated at once.  A
    single strong harmonic (e.g. misalignment's 3x) must not fire this
    rule, so the raft only counts when at least three orders are
    elevated together.
    """
    lines = _lines(spec, wave, fs, k, view)
    o = lines.orders
    elevated = o[2:8] > 2.5 * BASELINE_3X
    raft = float(np.sum(np.maximum(0.0, o[2:8] - BASELINE_3X)))
    if int(elevated.sum()) < 3:
        raft *= 0.15
    return (raft + 3.0 * lines.half_x) / 0.35


def _local_background(es: Spectrum, line_hz: float) -> float:
    """Median envelope amplitude over [½, 2)× ``line_hz``, the line's own
    ±5 bins excluded (plus 1e-12, so a ratio over it stays finite).

    The band is a slice of the sorted grid, not a mask over all of it:
    the same bins in the same order, so the same median.
    """
    i0 = int(np.searchsorted(es.freqs, 0.5 * line_hz, side="left"))
    i1 = int(np.searchsorted(es.freqs, 2.0 * line_hz, side="left"))
    off_line = es.amps[i0:i1][np.abs(es.freqs[i0:i1] - line_hz) > 5 * es.resolution]
    return window_median(off_line) + 1e-12 if off_line.size else 1e-12


def _bearing_strength(
    spec: Spectrum,
    wave: np.ndarray,
    fs: float,
    k: MachineKinematics,
    view: SpectralView | None = None,
) -> float:
    """Envelope line at BPFO (band-limited demodulation) plus kurtosis.

    The BPFO line is judged against the *local* envelope-spectrum
    background (same decade of frequency) because the envelope spectrum
    of broadband noise is strongly low-pass — a global median would
    make every low-frequency bin look like a line.
    """
    bf = k.bearing_defect_frequencies()
    hi = min(4500.0, fs / 2 * 0.9)
    if view is not None:
        es = view.envelope_spectrum(band=(2000.0, hi))
    else:
        es = envelope_spectrum(wave, fs, band=(2000.0, hi))
    line = es.amplitude_at(bf.bpfo, tolerance_bins=3)
    ratio = line / _local_background(es, bf.bpfo)
    line_score = max(0.0, (ratio - 4.0)) / 30.0
    kurtosis = view.kurtosis() if view is not None else kurtosis_excess(wave)
    kurt = max(0.0, kurtosis) / 10.0
    return line_score + float(kurt)


def _gear_wear_strength(
    spec: Spectrum,
    wave: np.ndarray,
    fs: float,
    k: MachineKinematics,
    view: SpectralView | None = None,
) -> float:
    """Gear-mesh amplitude plus shaft-rate sidebands."""
    if not k.gear_teeth:
        return 0.0
    lines = _lines(spec, wave, fs, k, view)
    main = max(0.0, lines.mesh - 0.05)
    sb = lines.mesh_upper + lines.mesh_lower
    return (main + sb) / 0.35


def _gear_misalignment_strength(
    spec: Spectrum,
    wave: np.ndarray,
    fs: float,
    k: MachineKinematics,
    view: SpectralView | None = None,
) -> float:
    """Dominant 2x gear mesh."""
    if not k.gear_teeth:
        return 0.0
    lines = _lines(spec, wave, fs, k, view)
    m2 = lines.two_mesh
    m1 = lines.mesh + 1e-9
    excess = max(0.0, m2 - 0.04)
    if m2 / m1 < 1.0:
        excess *= 0.4
    return excess / 0.3


def _rotor_bar_strength(
    spec: Spectrum,
    wave: np.ndarray,
    fs: float,
    k: MachineKinematics,
    view: SpectralView | None = None,
) -> float:
    """Pole-pass sidebands around 1x plus 2x line component.

    Sidebands sit within ~1-2 Hz of the 1x peak, so this rule builds
    its own full-length (high-resolution) spectrum instead of using the
    averaged one, and requires *both* sidebands (leakage from 1x is
    symmetric, but genuine rotor-bar sidebands are far stronger).
    """
    lines = _lines(spec, wave, fs, k, view)
    upper, lower, a1 = lines.pp_upper, lines.pp_lower, lines.one_x
    sb = 2.0 * min(upper, lower)
    # Genuine rotor-bar sidebands are large *relative to 1x*; window
    # leakage from a big imbalance peak is not.  Without credible
    # sidebands the 2x-line term must not fire this rule either (that
    # alone is the phase-imbalance signature).
    if sb < 0.06 or sb < 0.3 * a1:
        return 0.0
    line2 = lines.two_line
    return (max(0.0, sb - 0.05) + 0.5 * max(0.0, line2 - 0.02)) / 0.35


def _phase_imbalance_strength(
    spec: Spectrum,
    wave: np.ndarray,
    fs: float,
    k: MachineKinematics,
    view: SpectralView | None = None,
) -> float:
    """Strong 2x line frequency, with rotor-bar sidebands absent and
    not explainable as 2x shaft (misalignment)."""
    lines = _lines(spec, wave, fs, k, view)
    _, raw_line2 = lines.twice
    line2 = max(0.0, raw_line2 - 0.02)
    upper, lower = lines.pp_upper, lines.pp_lower
    if 2.0 * min(upper, lower) > 0.08:  # sidebands: prefer rotor-bar
        line2 *= 0.3
    return line2 / 0.4


def standard_rulebase() -> tuple[RuleFrame, ...]:
    """The default frame set for motors/gears/pumps/compressors.

    The looseness frame carries the §6.1 load sensitization; the others
    are regime-independent.
    """
    return (
        RuleFrame(
            "mc:motor-imbalance",
            _imbalance_strength,
            threshold=0.15,
            describe="1x running-speed amplitude excess {strength:.3f} over baseline",
        ),
        RuleFrame(
            "mc:shaft-misalignment",
            _misalignment_strength,
            threshold=0.15,
            describe="2x running-speed amplitude excess {strength:.3f}; 2x/1x ratio high",
        ),
        RuleFrame(
            "mc:bearing-housing-looseness",
            _looseness_strength,
            threshold=0.18,
            sensitizers=(load_sensitizer(gain=2.0),),
            describe="harmonic raft + half-order subharmonic, strength {strength:.3f}",
        ),
        RuleFrame(
            "mc:bearing-wear",
            _bearing_strength,
            threshold=0.12,
            describe="BPFO envelope line and impulsiveness, strength {strength:.3f}",
        ),
        RuleFrame(
            "mc:gear-tooth-wear",
            _gear_wear_strength,
            threshold=0.15,
            describe="gear-mesh amplitude with shaft-rate sidebands, strength {strength:.3f}",
        ),
        RuleFrame(
            "mc:gear-mesh-misalignment",
            _gear_misalignment_strength,
            threshold=0.15,
            describe="2x gear-mesh dominance, strength {strength:.3f}",
        ),
        RuleFrame(
            "mc:motor-rotor-bar",
            _rotor_bar_strength,
            threshold=0.12,
            describe="pole-pass sidebands around 1x, strength {strength:.3f}",
        ),
        RuleFrame(
            "mc:motor-phase-imbalance",
            _phase_imbalance_strength,
            threshold=0.12,
            describe="2x line-frequency component, strength {strength:.3f}",
        ),
    )
