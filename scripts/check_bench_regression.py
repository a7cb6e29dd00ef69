#!/usr/bin/env python
"""Gate a ``benchmarks/gates.py`` result against the committed ratio baseline.

Usage::

    python scripts/check_bench_regression.py BENCH.json benchmarks/baseline.json

Only *ratios* are gated (a shipped path vs its oracle, from the same run
on the same machine), never absolute throughput — CI runners vary wildly in speed
but a within-run ratio is machine-independent.  A measured ratio may
fall at most 20% below its baseline value before the gate fails.

A ratio measured by the benchmark but absent from the baseline is *not*
a regression — it is a new stage awaiting a baseline entry; the gate
warns (naming the key) and stays green.  A baseline entry missing from
the result is a failure: a gated stage silently disappearing from the
bench is exactly what the gate exists to catch — unless the baseline
lists the name under ``"optional"``, which marks stages newer than some
result documents still in circulation (the gate warns instead, so a
pre-PR bench result stays checkable against the current baseline).
"""

from __future__ import annotations

import json
import sys

TOLERANCE = 0.8  # measured >= baseline * TOLERANCE


class GateReport:
    """The outcome of evaluating measured ratios against floors."""

    __slots__ = ("lines", "warnings", "failures")

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.warnings: list[str] = []
        self.failures: list[str] = []

    @property
    def passed(self) -> bool:
        return not self.failures


def _base_name(name: str) -> str:
    """Strip stage metadata: ``shard_ingest_speedup@shards=4`` gates
    against its own baseline key if present, else against the
    ``shard_ingest_speedup`` base entry."""
    return name.split("@", 1)[0]


def evaluate(
    ratios: dict[str, float],
    floors: dict[str, float],
    tolerance: float = TOLERANCE,
    optional: tuple[str, ...] = (),
) -> GateReport:
    """Pure gate logic: compare measured ``ratios`` to baseline ``floors``.

    Per gated name the effective floor is ``baseline * tolerance``.
    Ungated measured ratios produce warnings; gated-but-unmeasured
    ratios produce failures — except names listed in ``optional``,
    which only warn when missing (for result documents predating the
    stage, or per-shard-count ratios a small CI host cannot emit).

    A measured name carrying stage metadata (``name@key=value``) gates
    against the exactly matching baseline entry when one exists, and
    otherwise falls back to the metadata-free base name — a per-shard-
    count measurement is compared, never warned-and-skipped, as long as
    the baseline knows the stage at all.
    """
    report = GateReport()
    # Measured name -> (floor, the baseline key that supplied it).
    matched: dict[str, tuple[float, str]] = {}
    for name in ratios:
        if name in floors:
            matched[name] = (floors[name], name)
        else:
            base = _base_name(name)
            if base != name and base in floors:
                matched[name] = (floors[base], base)
    for name in sorted(set(ratios) - set(matched)):
        report.warnings.append(
            f"stage {name!r} has no baseline entry; "
            f"skipping (add it to gate this stage)"
        )
    for name in sorted(matched):
        measured = ratios[name]
        floor, source = matched[name]
        limit = floor * tolerance
        verdict = "ok" if measured >= limit else "REGRESSION"
        via = "" if source == name else f"  (baseline key {source!r})"
        report.lines.append(
            f"{name:24s} measured {measured:7.3f}  baseline {floor:6.3f}"
            f"  floor {limit:6.3f}  {verdict}{via}"
        )
        if measured < limit:
            report.failures.append(
                f"{name}: {measured:.3f} < {limit:.3f} "
                f"(baseline {floor:.3f} * {tolerance})"
            )
    covered = set(ratios) | {source for _, source in matched.values()}
    for name in floors:
        if name in covered:
            continue
        if name in optional:
            report.warnings.append(
                f"optional stage {name!r} missing from bench result; "
                f"skipping (result predates the stage?)"
            )
        else:
            report.failures.append(f"{name}: missing from bench result")
    return report


def check(result_path: str, baseline_path: str) -> int:
    with open(result_path, encoding="utf-8") as fp:
        result = json.load(fp)
    with open(baseline_path, encoding="utf-8") as fp:
        baseline = json.load(fp)

    report = evaluate(
        result.get("ratios", {}),
        baseline.get("ratios", {}),
        optional=tuple(baseline.get("optional", [])),
    )
    for warning in report.warnings:
        print(f"warning: {warning}")
    for line in report.lines:
        print(line)
    if not report.passed:
        print("\nbenchmark regression gate FAILED:")
        for failure in report.failures:
            print(f"  - {failure}")
        return 1
    print("\nbenchmark regression gate passed")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__)
        raise SystemExit(2)
    raise SystemExit(check(sys.argv[1], sys.argv[2]))
