"""§3.1 The Prognostic/Diagnostic Monitoring Engine.

"The PDME is the logical center of the MPROS system.  Diagnostic and
prognostic conclusions are collected from DC-resident algorithms ...
Fusion of conflicting and reinforcing source conclusions is performed
to form a prioritized list for the use of maintenance personnel."
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.pdme.browser": ["render_machine_screen", "render_priority_list"],
    "repro.pdme.executive": ["PdmeExecutive"],
    "repro.pdme.priorities": ["PriorityEntry", "prioritize"],
    "repro.pdme.shard": [
        "ShardedPdme",
        "ShardLayout",
        "ShardWorker",
        "parallel_shard_ingest",
    ],
})
