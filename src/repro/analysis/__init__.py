"""Static analysis for the DC→PDME stack (``mpros verify``/``analyze``).

Three engines:

- the **SBFR bytecode verifier** (:mod:`repro.analysis.sbfr_verifier`)
  decodes machines into control-flow graphs (:mod:`repro.analysis.cfg`)
  and checks reachability, reference ranges, status-register races,
  timer satisfiability and the paper's byte/cycle budgets — without
  executing anything;
- the **determinism & safety linter** (:mod:`repro.analysis.lint`,
  rules in :mod:`repro.analysis.rules`) walks Python ASTs for
  wall-clock reads, unseeded randomness, set-ordering iteration, float
  equality in predicates and bare ``except`` clauses, resolving import
  aliases through :mod:`repro.analysis.imports`;
- the **whole-program analyzer** (``mpros analyze``): per-function
  effect signatures (:mod:`repro.analysis.callgraph`) propagated
  interprocedurally into flow rules (:mod:`repro.analysis.effects`)
  and shard/daemon concurrency rules
  (:mod:`repro.analysis.concurrency`), orchestrated by
  :mod:`repro.analysis.analyze` with content-hash summary caching
  (:mod:`repro.analysis.cache`) and baseline/SARIF/JSONL output
  (:mod:`repro.analysis.output`).

All emit :class:`~repro.analysis.report.Diagnostic` records collected
into a :class:`~repro.analysis.report.VerificationReport`.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.analyze": [
        "AnalyzeConfig",
        "analyze_paths",
        "analyze_sources",
        "build_graph",
        "check_graph",
    ],
    "repro.analysis.cache": ["SummaryCache", "content_key"],
    "repro.analysis.callgraph": [
        "ANALYZER_VERSION",
        "CallGraph",
        "FunctionSummary",
        "ModuleSummary",
        "summarize_source",
    ],
    "repro.analysis.cfg": [
        "CfgEdge",
        "ControlFlowGraph",
        "EdgeAccess",
        "build_cfg",
        "dead_timer_compares",
        "static_truth",
    ],
    "repro.analysis.concurrency": ["CONC_RULE_IDS", "check_concurrency"],
    "repro.analysis.effects": ["FLOW_RULE_IDS", "check_flow_rules"],
    "repro.analysis.imports": ["ImportTable", "module_name_for_path"],
    "repro.analysis.lint": [
        "LintRule",
        "allowed_rules",
        "iter_python_files",
        "lint_paths",
        "lint_source",
    ],
    "repro.analysis.output": [
        "Baseline",
        "BaselineEntry",
        "diagnostic_fingerprint",
        "render_jsonl",
        "render_sarif",
    ],
    "repro.analysis.report": [
        "Diagnostic",
        "Location",
        "Severity",
        "VerificationReport",
    ],
    "repro.analysis.sbfr_verifier": [
        "DEFAULT_BUDGETS",
        "Budgets",
        "cycle_cost_s",
        "verify_bytes",
        "verify_machine",
        "verify_set",
    ],
})
