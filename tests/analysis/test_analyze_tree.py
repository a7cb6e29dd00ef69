"""Whole-tree acceptance: the real src/repro is clean, and the
invariants the analyzer exists to protect actually trip it.

Each mutation test edits one real source file *in memory* and re-runs
the full interprocedural analysis — deleting the sequence stamp or
adding a second writer must fire ``conc.single-writer``; injecting a
wall-clock read into a report-feeding path must fire
``flow.clock-taints-report`` with the inducing chain.
"""

from pathlib import Path

import pytest

from repro.analysis.analyze import analyze_sources
from repro.analysis.output import Baseline

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"

STAMPED_WRITE = "self.store.ingest_batch(reports, report_ids, intake_seqs)"
UNSTAMPED_WRITE = "self.store.ingest_batch(reports, report_ids)"

ROGUE_WRITER = """

def rogue_write(worker: ShardWorker, reports: list, ids: list) -> None:
    worker.store.ingest_batch(reports, ids, None)
"""


@pytest.fixture(scope="module")
def tree_sources():
    sources = {}
    for path in sorted(SRC.rglob("*.py")):
        sources[str(path.relative_to(REPO))] = path.read_text(encoding="utf-8")
    assert len(sources) > 100
    return sources


def test_the_tree_is_clean_against_the_committed_baseline(tree_sources):
    report = analyze_sources(tree_sources)
    baseline = Baseline.load(REPO / "analysis" / "baseline.json")
    fresh, _known = baseline.split(report.diagnostics)
    assert fresh == (), "\n".join(d.render() for d in fresh)


def test_deleting_the_seq_stamp_fires_single_writer(tree_sources):
    shard = "src/repro/pdme/shard.py"
    assert STAMPED_WRITE in tree_sources[shard]
    mutated = dict(tree_sources)
    mutated[shard] = tree_sources[shard].replace(
        STAMPED_WRITE, UNSTAMPED_WRITE
    )
    report = analyze_sources(mutated)
    hits = [d for d in report.diagnostics
            if d.rule_id == "conc.single-writer"]
    assert hits, "dropping the sequence stamp must trip conc.single-writer"
    assert any(d.location.file == shard and "sequence stamp" in d.message
               for d in hits)


def test_a_second_writer_fires_single_writer(tree_sources):
    shard = "src/repro/pdme/shard.py"
    mutated = dict(tree_sources)
    mutated[shard] = tree_sources[shard] + ROGUE_WRITER
    report = analyze_sources(mutated)
    hits = [d for d in report.diagnostics
            if d.rule_id == "conc.single-writer"
            and d.symbol == "repro.pdme.shard.rogue_write"]
    assert hits, "a writer outside the owning worker must trip the rule"
    assert "does not own" in hits[0].message


def test_injected_wall_clock_in_report_path_fires_with_chain(tree_sources):
    fft = "src/repro/dsp/fft.py"
    lines = tree_sources[fft].splitlines()
    idx = next(i for i, ln in enumerate(lines)
               if ln.startswith("def estimate_shaft_speed("))
    while not lines[idx].rstrip().endswith(":"):
        idx += 1
    lines.insert(idx + 1, "    import time as _t; _t0 = _t.time()")
    mutated = dict(tree_sources)
    mutated[fft] = "\n".join(lines) + "\n"
    report = analyze_sources(mutated)
    hits = [d for d in report.diagnostics
            if d.rule_id == "flow.clock-taints-report"]
    assert hits, "a clock read feeding report construction must be flagged"
    diag = hits[0]
    # The chain walks from the report-adjacent anchor down to the origin.
    assert diag.chain, diag.render()
    assert "time.time()" in diag.chain[-1]
    assert "repro.dsp.fft.estimate_shaft_speed" in diag.chain[-1]
