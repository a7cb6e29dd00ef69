#!/usr/bin/env python
"""Gate the exact work counts of a traced e2e smoke run.

Usage::

    PYTHONPATH=src:. python -m benchmarks.e2e run --smoke --trace --seed 0 --out DIR
    python scripts/check_work_counts.py DIR/result.json benchmarks/work_counts.json

The traced run counts work per layer (DSP calls, kernel events, frames
sent, log rows).  At a fixed seed and size these counts are the same on
every host, so the gate is exact: any count that differs from the
committed one fails, as does a result from another seed, size or an
untraced run, and a committed count the result lacks.
"""

from __future__ import annotations

import json
import sys


def evaluate(result: dict, committed: dict) -> list[str]:
    """The failures of ``result`` against the ``committed`` document."""
    failures = []
    for key, want in sorted(committed["run"].items()):
        got = result.get(key)
        if got != want:
            failures.append(f"run {key}={got!r}, the committed counts are for {want!r}")
    if failures:
        return failures
    workloads = result.get("workloads", {})
    for workload, counts in sorted(committed["counts"].items()):
        layers = workloads.get(workload, {}).get("layers", {})
        for name, want in sorted(counts.items()):
            got = layers.get(name)
            if got is None:
                failures.append(f"{workload} {name}: missing from the result")
            elif got != want:
                failures.append(f"{workload} {name}: {got:g}, committed {want}")
    return failures


def check(result_path: str, committed_path: str) -> int:
    with open(result_path, encoding="utf-8") as fp:
        result = json.load(fp)
    with open(committed_path, encoding="utf-8") as fp:
        committed = json.load(fp)
    failures = evaluate(result, committed)
    if failures:
        print("work-count gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    n = sum(len(counts) for counts in committed["counts"].values())
    print(f"work-count gate passed ({n} counts exact)")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__)
        raise SystemExit(2)
    raise SystemExit(check(sys.argv[1], sys.argv[2]))
