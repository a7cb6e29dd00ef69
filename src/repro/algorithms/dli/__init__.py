"""§6.1 The DLI-style vibration expert system.

"All standard machinery vibration FFT analysis and associated
diagnostics in the Data Concentrator are handled by the DLI expert
system ... The frame based rules application method employed allows the
spectral vibration features to be analyzed in conjunction with process
parameters such as load or bearing temperatures."

DLI's actual Expert Alert rulebase is proprietary; this package
reproduces the *mechanism*: frame-based rules over averaged spectra,
sensitization to process parameters, a numeric severity score graded
Slight/Moderate/Serious/Extreme, and believability factors derived from
a reversal-statistics database.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.algorithms.dli.believability": ["ReversalDatabase"],
    "repro.algorithms.dli.engine": ["DliExpertSystem"],
    "repro.algorithms.dli.frames": ["RuleFrame", "RuleResult"],
    "repro.algorithms.dli.rules": ["standard_rulebase"],
    "repro.algorithms.dli.severity": [
        "prognostic_from_grade",
        "score_to_grade",
    ],
})
