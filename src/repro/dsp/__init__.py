"""Signal-processing substrate for the diagnostic algorithm suites.

Everything the DLI expert system, the wavelet neural network and SBFR
feature extraction need from "standard machinery vibration FFT
analysis": windowed averaged spectra, order tracking, scalar statistics
(RMS, crest, kurtosis), cepstrum, DCT features, a from-scratch discrete
wavelet transform, and envelope analysis for bearing faults.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.dsp.batch": [
        "BatchSpectralCache",
        "SpectralView",
        "SpectrumBatch",
        "batch_averaged_spectrum",
        "batch_cepstrum",
        "batch_envelope",
        "batch_envelope_spectrum",
        "batch_scalar_features",
        "batch_spectrum",
    ],
    "repro.dsp.cepstrum": ["real_cepstrum"],
    "repro.dsp.dct": ["dct2", "dct_features"],
    "repro.dsp.envelope": ["envelope", "envelope_spectrum"],
    "repro.dsp.features": [
        "band_rms",
        "crest_factor",
        "kurtosis_excess",
        "peak_amplitude",
        "rms",
        "scalar_features",
    ],
    "repro.dsp.fft": [
        "Spectrum",
        "averaged_spectrum",
        "order_amplitudes",
        "spectrum",
    ],
    "repro.dsp.plan": ["FftPlan", "get_plan"],
    "repro.dsp.stft": ["Spectrogram", "stft", "transient_events"],
    "repro.dsp.wavelet": [
        "WaveletMap",
        "dwt",
        "dwt_multilevel",
        "idwt",
        "wavedec_energies",
    ],
})

# ``envelope`` and ``stft`` are also the names of submodules.  The first
# import of a submodule binds the module to its name in the package,
# which would hide the function from ``__getattr__``; binding these two
# functions now (both modules are cheap) keeps the names the functions.
from repro.dsp.envelope import envelope  # noqa: E402
from repro.dsp.stft import stft  # noqa: E402
