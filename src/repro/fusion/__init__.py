"""§5 Knowledge Fusion — the paper's central contribution.

Diagnostic fusion uses Dempster-Shafer rules of evidence over *logical
failure groups*; prognostic fusion combines (time, probability) vectors
with a conservative envelope.  :class:`KnowledgeFusionEngine` wires
both to the OOSM event stream.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.fusion.dempster_shafer": [
        "MassFunction",
        "combine",
        "combine_many",
        "conflict",
    ],
    "repro.fusion.diagnostic": ["DiagnosticFusion", "FusedDiagnosis"],
    "repro.fusion.groups": ["GroupRegistry", "LogicalGroup"],
    "repro.fusion.prognostic": [
        "PrognosticFusion",
        "conservative_envelope",
        "noisy_or_envelope",
    ],
    "repro.fusion.engine": ["KnowledgeFusionEngine"],
    "repro.fusion.bayes": [
        "BayesDiagnosticFusion",
        "BayesNet",
        "learn_source_model",
    ],
    "repro.fusion.hierarchy": ["HealthRollup"],
    "repro.fusion.spatial": [
        "flow_contamination_candidates",
        "transmitted_vibration_candidates",
    ],
    "repro.fusion.temporal": ["EpisodeTracker", "TemporalAnalyzer"],
    "repro.fusion.survival": [
        "LifeRecord",
        "WeibullFit",
        "fit_weibull",
        "kaplan_meier",
        "survival_refined_prognostic",
    ],
})
