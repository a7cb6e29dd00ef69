"""Wire encoding of §7 reports.

The original system shipped reports DC→PDME over DCOM; our network
substitute (:mod:`repro.netsim`) carries JSON-compatible dictionaries.
This module is the single place that knows the field layout, so the
schema can evolve without touching transport code.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any, Mapping

from repro.common.errors import ProtocolError
from repro.protocol.prognostic import PrognosticVector, _check_point, _ordered
from repro.protocol.report import FailurePredictionReport

#: Wire schema version; bumped on incompatible layout changes.
WIRE_VERSION = 1

_REQUIRED = (
    "knowledge_source_id",
    "sensed_object_id",
    "machine_condition_id",
    "severity",
    "belief",
    "timestamp",
)
_REQUIRED_KEYS = frozenset(_REQUIRED)
_INF = float("inf")

_ascii = encode_basestring_ascii
_dumps = json.dumps


def encode_report(report: FailurePredictionReport) -> dict[str, Any]:
    """Encode a report into a JSON-compatible dict."""
    return {
        "v": WIRE_VERSION,
        "knowledge_source_id": report.knowledge_source_id,
        "sensed_object_id": report.sensed_object_id,
        "machine_condition_id": report.machine_condition_id,
        "severity": report.severity,
        "belief": report.belief,
        "timestamp": report.timestamp,
        "dc_id": report.dc_id,
        "explanation": report.explanation,
        "recommendations": report.recommendations,
        "additional_info": report.additional_info,
        "prognostic": report.prognostic.to_pairs(),
        "degraded": report.degraded,
    }


def report_text(report: FailurePredictionReport) -> str:
    """The stored form of a report: its log row text.

    Byte-identical to ``json.dumps(encode_report(report))``, rendered
    straight from the fields without building the wire dict: keys in
    ``encode_report`` order, ``json.dumps``'s default separators.
    Finite ``float`` fields go through ``repr`` (what ``json`` uses for
    them) and ``str`` fields through ``json``'s own ASCII escaper; a
    field of any other type (an int timestamp, an ``np.float64``, a
    non-finite float) is rendered by ``json.dumps`` itself.
    """
    ks = report.knowledge_source_id
    obj = report.sensed_object_id
    cond = report.machine_condition_id
    sev = report.severity
    bel = report.belief
    ts = report.timestamp
    dc = report.dc_id
    expl = report.explanation
    rec = report.recommendations
    info = report.additional_info
    deg = report.degraded
    prognostic = ", ".join([
        f"[{repr(t) if type(t) is float and t - t == 0.0 else _dumps(t)}, "
        f"{repr(p) if type(p) is float and p - p == 0.0 else _dumps(p)}]"
        for t, p in report.prognostic.to_pairs()
    ])
    return (
        f'{{"v": {WIRE_VERSION}, '
        f'"knowledge_source_id": {_ascii(ks) if type(ks) is str else _dumps(ks)}, '
        f'"sensed_object_id": {_ascii(obj) if type(obj) is str else _dumps(obj)}, '
        f'"machine_condition_id": '
        f'{_ascii(cond) if type(cond) is str else _dumps(cond)}, '
        f'"severity": {repr(sev) if type(sev) is float and sev - sev == 0.0 else _dumps(sev)}, '
        f'"belief": {repr(bel) if type(bel) is float and bel - bel == 0.0 else _dumps(bel)}, '
        f'"timestamp": {repr(ts) if type(ts) is float and ts - ts == 0.0 else _dumps(ts)}, '
        f'"dc_id": {_ascii(dc) if type(dc) is str else _dumps(dc)}, '
        f'"explanation": {_ascii(expl) if type(expl) is str else _dumps(expl)}, '
        f'"recommendations": {_ascii(rec) if type(rec) is str else _dumps(rec)}, '
        f'"additional_info": {_ascii(info) if type(info) is str else _dumps(info)}, '
        f'"prognostic": [{prognostic}], '
        f'"degraded": {"true" if deg is True else "false" if deg is False else _dumps(deg)}}}'
    )


def decode_report(payload: Mapping[str, Any]) -> FailurePredictionReport:
    """Decode a wire dict back into a report, validating the schema.

    One pass over the prognostic pairs converts and checks each one,
    and notes whether they already arrive in order; only pairs that do
    not are sorted and checked by ``_ordered``.  Refusals keep the
    order of a convert-everything-then-check decoder: a pair that
    cannot be converted is reported ahead of an earlier pair that
    converts to an out-of-range value.
    """
    version = payload.get("v", WIRE_VERSION)
    if version != WIRE_VERSION:
        raise ProtocolError(f"unsupported wire version {version}")
    if not _REQUIRED_KEYS <= payload.keys():
        missing = [k for k in _REQUIRED if k not in payload]
        raise ProtocolError(f"wire payload missing fields: {missing}")
    pairs: list[tuple[float, float]] = []
    bad: tuple[float, float] | None = None
    # Whether the pairs already arrive in the vector's order (times
    # strictly increasing, probabilities non-decreasing), so that
    # ``_ordered`` would change nothing.
    in_order = True
    last_t = -1.0
    last_p = 0.0
    try:
        for t, p in payload.get("prognostic", ()):
            t = float(t)
            p = float(p)
            # Chained comparisons are false for NaN, so this also
            # catches every non-finite value.
            if not (0.0 <= t < _INF and 0.0 <= p <= 1.0) and bad is None:
                bad = (t, p)
            if not (last_t < t and last_p <= p):
                in_order = False
            last_t = t
            last_p = p
            pairs.append((t, p))
        if bad is not None:
            _check_point(*bad)
        prognostic = PrognosticVector._trusted(pairs if in_order else _ordered(pairs))
        severity = float(payload["severity"])
        belief = float(payload["belief"])
        timestamp = float(payload["timestamp"])
    except (TypeError, ValueError, OverflowError) as exc:
        # OverflowError: an integer literal too large for a float.
        raise ProtocolError(f"malformed numeric field: {exc}") from exc
    return FailurePredictionReport(
        str(payload["knowledge_source_id"]),
        str(payload["sensed_object_id"]),
        str(payload["machine_condition_id"]),
        severity,
        belief,
        timestamp,
        str(payload.get("dc_id", "")),
        str(payload.get("explanation", "")),
        str(payload.get("recommendations", "")),
        str(payload.get("additional_info", "")),
        prognostic,
        bool(payload.get("degraded", False)),
    )


def to_json(report: FailurePredictionReport) -> str:
    """Serialize a report to a JSON string (network/persistence form)."""
    return json.dumps(encode_report(report), separators=(",", ":"))


def from_json(text: str) -> FailurePredictionReport:
    """Parse a JSON string produced by :func:`to_json`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid report JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("report JSON must be an object")
    return decode_report(payload)
