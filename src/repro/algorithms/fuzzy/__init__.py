"""§6.2 Fuzzy-logic diagnostics and prognostics on non-vibration data.

The fourth algorithm suite "draws diagnostic and prognostic conclusions
from non-vibrational data": chiller process variables (pressures,
temperatures, superheat, oil system) evaluated through a Mamdani
rulebase with centroid defuzzification, plus trend-based prognostic
vectors.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.algorithms.fuzzy.engine": ["FuzzyDiagnostics"],
    "repro.algorithms.fuzzy.inference": ["FuzzyRule", "MamdaniEngine"],
    "repro.algorithms.fuzzy.prognosis": ["trend_prognostic"],
    "repro.algorithms.fuzzy.rules": [
        "chiller_rulebase",
        "chiller_variables",
        "turbine_rulebase",
        "turbine_variables",
    ],
    "repro.algorithms.fuzzy.sets": [
        "Gaussian",
        "LinguisticVariable",
        "Trapezoid",
        "Triangle",
    ],
})
