"""§9 Validation.

"How are you going to prove that your system does what you say it
does?"  The paper's answers, reproduced on the simulated plant: seeded
faults, destructive (run-to-failure) testing, archived maintenance
data, and human-expert agreement — plus the metrics to score them.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.validation.analyst": ["AnalystDecision", "SyntheticAnalyst"],
    "repro.validation.archives": ["MaintenanceRecord", "generate_archive"],
    "repro.validation.destructive": [
        "DestructiveTestResult",
        "run_destructive_test",
    ],
    "repro.validation.metrics": [
        "CampaignMetrics",
        "detection_latency",
        "precision_recall",
        "prognostic_error",
    ],
    "repro.validation.scenarios": [
        "ScenarioSpec",
        "chiller_scenario",
        "get_scenario",
        "run_scenario_suite",
        "scenario_names",
        "turbine_scenario_spec",
    ],
    "repro.validation.scoring": [
        "CostModel",
        "RunScore",
        "ScenarioScorecard",
        "bootstrap_ci",
        "maintenance_cost",
        "score_run",
        "score_scenario",
        "timeliness",
    ],
    "repro.validation.seeded": ["CampaignRecord", "SeededFaultCampaign"],
})
