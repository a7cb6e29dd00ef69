"""Embedded high-performance computing concerns (§1).

"Fleet-wide, thousands of embedded processors will collect millions of
data points per second of data from tens of thousands of locations
each ... The result is evident: significant data loads, multiple
embedded processors, and critical high performance computing needs."

This package quantifies and exercises those loads: fleet data-rate
accounting, chunked vectorized feature pipelines (single-pass,
allocation-free per the HPC guides), a multiprocessing DC replay farm, and
embedded resource budgets for the SBFR footprint/cycle claims.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.hpc.budget": ["EmbeddedBudget", "check_sbfr_budget"],
    "repro.hpc.datarates": ["FleetConfig", "fleet_data_rate", "LoadGenerator"],
    "repro.hpc.parallel": [
        "DcReplaySpec",
        "merge_fleet_reports",
        "replay_dc",
        "replay_fleet",
    ],
    "repro.hpc.pipeline": ["ChannelSummary", "FeaturePipeline"],
})
