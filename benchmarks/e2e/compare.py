"""``compare A/ B/``: judge two sets of runs metric by metric.

Each side is a directory holding one or more ``result.json`` files (at
any depth).  For every (workload, end-to-end metric) the verdict uses
the bound of that metric's generic family in ``BENCHMARK.json``, or a
bound of 0 for a metric without one:

* ``unchanged`` — B's median is within the bound of A's;
* ``better`` / ``worse`` — B's median moved past the bound;
* ``unresolved`` — either side's own run-to-run spread (IQR over median)
  exceeds the bound, and the runs do not separate completely.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from benchmarks.e2e.metrics import family
from benchmarks.e2e.stats import quartiles, relative_spread


def judge(a: Sequence[float], b: Sequence[float], bound: float, better: str) -> str:
    """Verdict for B against A; ``better`` is ``"lower"`` or ``"higher"``."""
    sign = 1.0 if better == "lower" else -1.0
    _, ma, _ = quartiles(a)
    _, mb, _ = quartiles(b)
    if ma == mb:
        return "unchanged"
    b_wins = all(sign * (y - x) < 0 for x in a for y in b)
    b_loses = all(sign * (y - x) > 0 for x in a for y in b)
    noisy = ma == 0 or max(relative_spread(a), relative_spread(b)) > bound
    if noisy:
        if b_wins:
            return "better"
        if b_loses:
            return "worse"
        return "unresolved"
    change = sign * (mb - ma) / abs(ma)
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def load_runs(directory: Path) -> list[dict]:
    files = sorted(directory.rglob("result.json"))
    if not files:
        raise FileNotFoundError(f"no result.json under {directory}")
    return [json.loads(f.read_text(encoding="utf-8")) for f in files]


def _values(runs: list[dict], workload: str, name: str) -> list[float]:
    return [
        run["workloads"][workload]["metrics"][name]["value"]
        for run in runs
        if name in run["workloads"].get(workload, {}).get("metrics", {})
    ]


def _unit(runs: list[dict], workload: str, name: str) -> str:
    return next(
        run["workloads"][workload]["metrics"][name]["unit"]
        for run in runs
        if name in run["workloads"].get(workload, {}).get("metrics", {})
    )


def compare(a_dir: Path, b_dir: Path, benchmark_json: Path) -> int:
    """Print the comparison table; returns 1 if anything got worse."""
    spec = json.loads(benchmark_json.read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    a_runs, b_runs = load_runs(a_dir), load_runs(b_dir)
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"A: {len(a_runs)} run(s) from {a_dir}   B: {len(b_runs)} run(s) from {b_dir}")
    print(
        f"{'workload':<9} {'metric':<24} {'A median [Q1, Q3]':>32} "
        f"{'B median [Q1, Q3]':>32} {'bound':>6}  verdict"
    )
    worse = False
    for workload in workloads:
        names = sorted(
            {n for run in a_runs + b_runs for n in run["workloads"].get(workload, {}).get("metrics", {})}
        )
        for name in names:
            a, b = _values(a_runs, workload, name), _values(b_runs, workload, name)
            if not a or not b:
                continue
            generic = family(workload, name)
            if generic:
                bound, direction = bounds[generic]["bound"], bounds[generic]["better"]
            else:
                # No bound: any spread counts as noise, so only runs that
                # separate completely give a verdict.  Rates are the only
                # metrics where higher is better.
                unit = _unit(a_runs, workload, name)
                bound, direction = 0.0, "higher" if unit.endswith("/s") else "lower"
            verdict = judge(a, b, bound, direction)
            worse |= verdict == "worse"
            print(
                f"{workload:<9} {name:<24} {_fmt(a):>32} {_fmt(b):>32} "
                f"{bound:>6.2f}  {verdict}"
            )
    return 1 if worse else 0


def _fmt(values: Sequence[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"
