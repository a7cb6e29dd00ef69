"""§6.2 Wavelet Neural Network diagnostics and prognostics.

"The WNN belongs to a new class of neural networks with such unique
capabilities as multi-resolution and localization in addressing
classification problems.  For fault diagnosis, the WNN serves as a
classifier ... Results of the WNN can be used to perform fault
diagnosis via classification using information such as the peak of the
signal amplitude, standard deviation, cepstrum, DCT coefficients,
wavelet maps, temperature, humidity, speed, and mass."

Unlike the DLI suite (steady-state averaged spectra), the WNN "will
excel in drawing conclusions from transitory phenomena": its features
are computed on short windows and are dominated by localized
time-scale content.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.algorithms.wnn.classifier": ["WnnFaultClassifier"],
    "repro.algorithms.wnn.features": ["FEATURE_NAMES", "assemble_features"],
    "repro.algorithms.wnn.network": ["WaveletNeuralNetwork"],
    "repro.algorithms.wnn.train": ["TrainConfig", "train_network"],
})
