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

from repro.hpc.budget import EmbeddedBudget, check_sbfr_budget
from repro.hpc.datarates import FleetConfig, fleet_data_rate, LoadGenerator
from repro.hpc.parallel import (
    DcReplaySpec,
    merge_fleet_reports,
    replay_dc,
    replay_fleet,
)
from repro.hpc.pipeline import ChannelSummary, FeaturePipeline

__all__ = [
    "EmbeddedBudget",
    "check_sbfr_budget",
    "FleetConfig",
    "fleet_data_rate",
    "LoadGenerator",
    "DcReplaySpec",
    "merge_fleet_reports",
    "replay_dc",
    "replay_fleet",
    "ChannelSummary",
    "FeaturePipeline",
]
