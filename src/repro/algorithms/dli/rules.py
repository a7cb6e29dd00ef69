"""The standard vibration rulebase.

One frame per vibration-visible FMEA failure mode, measuring the
textbook signature the synthesizer produces (and real machines show):
the rule content is ours, the mechanism is §6.1's.

Strength conventions: each strength function returns ≈0 on a healthy
machine and ≈1 at a severe defect, using baseline-relative amplitudes
so the rules transfer across machines with different absolute levels.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.dli.frames import RuleFrame, load_sensitizer
from repro.dsp.batch import SpectralView
from repro.dsp.envelope import envelope_spectrum
from repro.dsp.features import kurtosis_excess
from repro.dsp.fft import Spectrum, order_amplitudes, spectrum as _spectrum
from repro.plant.rotating import MachineKinematics


def _full_spectrum(
    wave: np.ndarray, fs: float, view: SpectralView | None = None
) -> Spectrum:
    """Full-length (maximum-resolution) spectrum for sideband rules.

    With a view, the spectrum comes from the scan-wide cache — one FFT
    per machine per scan instead of one per rule frame.
    """
    if view is not None:
        return view.full()
    return _spectrum(wave, fs, window="hann")


def _twice_shaft_vs_twice_line(
    hires: Spectrum, k: MachineKinematics
) -> tuple[float, float]:
    """Attribute the 2x region to misalignment (2x shaft) vs electrical
    (2x line).

    On a near-synchronous motor the two tones sit ~1-2 Hz apart, inside
    each other's window leakage.  The local peak decides ownership: the
    loser only keeps amplitude measured away from the winner's
    mainlobe.  Returns (amp at 2x shaft, amp at 2x line).
    """
    f_mis = 2 * k.shaft_hz
    f_ph = 2 * k.line_hz
    res = hires.resolution
    if abs(f_mis - f_ph) > 6 * res:
        # Well separated: plain windowed measurements.
        return (
            hires.amplitude_at(f_mis, tolerance_bins=2),
            hires.amplitude_at(f_ph, tolerance_bins=2),
        )
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
    hires = _full_spectrum(wave, fs, view)
    a1 = hires.amplitude_at(k.shaft_hz, tolerance_bins=2)
    a2 = hires.amplitude_at(2 * k.shaft_hz, tolerance_bins=2)
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
    hires = _full_spectrum(wave, fs, view)
    a1 = hires.amplitude_at(k.shaft_hz, tolerance_bins=2)
    a2, _ = _twice_shaft_vs_twice_line(hires, k)
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
    o = order_amplitudes(spec, k.shaft_hz, max_order=8)
    elevated = o[2:8] > 2.5 * BASELINE_3X
    raft = float(np.sum(np.maximum(0.0, o[2:8] - BASELINE_3X)))
    if int(elevated.sum()) < 3:
        raft *= 0.15
    sub = _full_spectrum(wave, fs, view).amplitude_at(0.5 * k.shaft_hz, tolerance_bins=2)
    return (raft + 3.0 * sub) / 0.35


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
    # Local background: same band as BPFO, excluding the line itself.
    lo_f, hi_f = 0.5 * bf.bpfo, 2.0 * bf.bpfo
    mask = (es.freqs >= lo_f) & (es.freqs < hi_f) & (np.abs(es.freqs - bf.bpfo) > 5 * es.resolution)
    background = float(np.median(es.amps[mask])) + 1e-12 if mask.any() else 1e-12
    ratio = line / background
    line_score = max(0.0, (ratio - 4.0)) / 30.0
    kurt = max(0.0, kurtosis_excess(wave)) / 10.0
    return line_score + float(kurt)


def _gear_wear_strength(
    spec: Spectrum, wave: np.ndarray, fs: float, k: MachineKinematics
) -> float:
    """Gear-mesh amplitude plus shaft-rate sidebands."""
    if not k.gear_teeth:
        return 0.0
    mesh = k.gear_mesh_hz
    main = max(0.0, spec.amplitude_at(mesh) - 0.05)
    sb = spec.amplitude_at(mesh + k.shaft_hz) + spec.amplitude_at(mesh - k.shaft_hz)
    return (main + sb) / 0.35


def _gear_misalignment_strength(
    spec: Spectrum, wave: np.ndarray, fs: float, k: MachineKinematics
) -> float:
    """Dominant 2x gear mesh."""
    if not k.gear_teeth:
        return 0.0
    m2 = spec.amplitude_at(2 * k.gear_mesh_hz)
    m1 = spec.amplitude_at(k.gear_mesh_hz) + 1e-9
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
    hires = _full_spectrum(wave, fs, view)
    pp = max(k.pole_pass_hz, 0.5)
    upper = hires.amplitude_at(k.shaft_hz + pp, tolerance_bins=1)
    lower = hires.amplitude_at(k.shaft_hz - pp, tolerance_bins=1)
    a1 = hires.amplitude_at(k.shaft_hz, tolerance_bins=2)
    sb = 2.0 * min(upper, lower)
    # Genuine rotor-bar sidebands are large *relative to 1x*; window
    # leakage from a big imbalance peak is not.  Without credible
    # sidebands the 2x-line term must not fire this rule either (that
    # alone is the phase-imbalance signature).
    if sb < 0.06 or sb < 0.3 * a1:
        return 0.0
    line2 = hires.amplitude_at(2 * k.line_hz, tolerance_bins=2)
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
    hires = _full_spectrum(wave, fs, view)
    _, raw_line2 = _twice_shaft_vs_twice_line(hires, k)
    line2 = max(0.0, raw_line2 - 0.02)
    pp = max(k.pole_pass_hz, 0.5)
    upper = hires.amplitude_at(k.shaft_hz + pp, tolerance_bins=1)
    lower = hires.amplitude_at(k.shaft_hz - pp, tolerance_bins=1)
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
