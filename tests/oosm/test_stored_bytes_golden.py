"""Golden sha256 of the report bytes the PDME and the DC store.

A log row never changes once written, and readers, replicas and
restarts parse exactly those bytes, so a change to how a report is
rendered for storage must leave every byte of it alone.  Two stores are
pinned over one fixed synthetic stream:

* the ``payload`` column of each partition of a 2-shard file-backed
  :class:`~repro.pdme.shard.ShardedPdme`, in ``seq`` order;
* the ``payload`` column of a :class:`~repro.dc.database.DcDatabase`'s
  ``condition_reports`` table.

The stream mixes the field values a renderer can get wrong: non-ASCII,
astral and control characters, quotes and backslashes in the text
fields; ``-0.0``, the smallest subnormal and ``1e308``; int-typed and
``np.float64`` fields from builders that are not the wire decoder;
empty, one-point and multi-point prognostics; id-less reports and
retransmitted ids.  The digests were computed before the stored form
got its own renderer and must not move.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.common.rng import make_rng
from repro.dc.database import DcDatabase
from repro.pdme.shard import ShardedPdme, registry_for_plant
from repro.protocol.prognostic import PrognosticVector
from repro.protocol.report import FailurePredictionReport

SHARD_DIGESTS = [
    "3314f51808b15f6b693a7ad1b608e471e629e4331cabedbe71c8a4de59eab1eb",
    "abbf72aab1c903a8cff4fe85c764aa987a3d2e9d731608ccb929d1e22d726bb2",
]
DC_DIGEST = "d4b224c4941007d190312b691abc678ca47440aa617d2ccbcdf3dc41b5086709"

TEXTS = [
    "",
    "plain ascii",
    'quote " and backslash \\ and slash /',
    "tab\tnewline\ncarriage\rnul\x00 bell\x07 del\x7f",
    "café über ß",
    "温度警告",
    "astral \U0001f525 and \U0001d11e",
    "line separator \u2028 paragraph \u2029",
    "lone \ud800 surrogate",
]
NUMBERS = [0.0, -0.0, 5e-324, 1.0, 0.5, 1 - 2**-53, 0.1, 1, 0]


def stream(n: int = 240) -> list[tuple[str | None, FailurePredictionReport]]:
    """``n`` (report_id, report) pairs; deterministic."""
    rng = make_rng(27)
    conditions = sorted(
        c for group in registry_for_plant("chiller").groups() for c in group.conditions
    )
    out: list[tuple[str | None, FailurePredictionReport]] = []
    for i in range(n):
        pick = int(rng.integers(0, 4))
        if pick == 0:
            severity, belief = NUMBERS[i % len(NUMBERS)], float(rng.uniform(0.0, 1.0))
        elif pick == 1:
            severity, belief = float(rng.uniform(0.0, 1.0)), np.float64(rng.uniform(0.0, 1.0))
        else:
            severity, belief = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0))
        timestamp = 1000.0 + i * 0.25 if i % 7 else [1000 + i, 1e308, 5e-324][i % 3]
        k = int(rng.integers(0, 4))
        times = np.cumsum(rng.uniform(1.0, 7200.0, size=k))
        probs = np.sort(rng.uniform(0.0, 1.0, size=k))
        if k and i % 5 == 0:
            probs[0] = -0.0
        prognostic = PrognosticVector.from_pairs(
            [(float(t), float(p)) for t, p in zip(times, probs)]
        )
        report = FailurePredictionReport(
            knowledge_source_id=f"ks:{TEXTS[i % 3 + 1][:5]}-{i % 4}",
            sensed_object_id=f"obj:m{int(rng.integers(0, 24))}",
            machine_condition_id=conditions[int(rng.integers(0, len(conditions)))],
            severity=severity,
            belief=belief,
            timestamp=timestamp,
            dc_id=f"dc:{i % 3}",
            explanation=TEXTS[i % len(TEXTS)],
            recommendations=TEXTS[(i * 5) % len(TEXTS)],
            additional_info=TEXTS[(i * 7) % len(TEXTS)] if i % 2 else "",
            prognostic=prognostic,
            degraded=bool(i % 3 == 0),
        )
        if i % 11 == 0:
            rid = None
        elif i % 13 == 0 and out:
            rid = next((r for r, _ in reversed(out) if r is not None), None)
        else:
            rid = f"dc:{i % 3}#{i}"
        out.append((rid, report))
    return out


def _digest(payloads: list[str]) -> str:
    h = hashlib.sha256()
    for payload in payloads:
        h.update(payload.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def test_partition_log_payloads_match_golden(tmp_path):
    pdme = ShardedPdme(
        2,
        registry_factory=lambda: registry_for_plant("chiller"),
        store_paths=[tmp_path / f"shard-{i}.sqlite" for i in range(2)],
    )
    items = stream()
    for lo in range(0, len(items), 16):
        chunk = items[lo:lo + 16]
        pdme.submit_batch([r for _, r in chunk], [rid for rid, _ in chunk])
    digests = [
        _digest([
            payload
            for (payload,) in worker.store._conn.execute(
                "SELECT payload FROM report_log ORDER BY seq"
            )
        ])
        for worker in pdme.workers
    ]
    counts = [worker.report_count for worker in pdme.workers]
    pdme.close()
    assert all(counts) and sum(counts) < len(items)
    assert digests == SHARD_DIGESTS


def test_dc_database_condition_report_payloads_match_golden():
    db = DcDatabase()
    for _, report in stream():
        db.store_report(report)
    payloads = [
        payload
        for (payload,) in db._conn.execute(
            "SELECT payload FROM condition_reports ORDER BY seq"
        )
    ]
    db.close()
    assert _digest(payloads) == DC_DIGEST
