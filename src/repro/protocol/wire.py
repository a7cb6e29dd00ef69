"""Wire encoding of §7 reports.

The original system shipped reports DC→PDME over DCOM; our network
substitute (:mod:`repro.netsim`) carries JSON-compatible dictionaries.
This module is the single place that knows the field layout, so the
schema can evolve without touching transport code.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.common.errors import ProtocolError
from repro.protocol.prognostic import PrognosticVector
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


def decode_report(payload: Mapping[str, Any]) -> FailurePredictionReport:
    """Decode a wire dict back into a report, validating the schema."""
    version = payload.get("v", WIRE_VERSION)
    if version != WIRE_VERSION:
        raise ProtocolError(f"unsupported wire version {version}")
    missing = [k for k in _REQUIRED if k not in payload]
    if missing:
        raise ProtocolError(f"wire payload missing fields: {missing}")
    try:
        prognostic = PrognosticVector.from_pairs(
            [(float(t), float(p)) for t, p in payload.get("prognostic", [])]
        )
        severity = float(payload["severity"])
        belief = float(payload["belief"])
        timestamp = float(payload["timestamp"])
    except (TypeError, ValueError, OverflowError) as exc:
        # OverflowError: an integer literal too large for a float.
        raise ProtocolError(f"malformed numeric field: {exc}") from exc
    return FailurePredictionReport(
        knowledge_source_id=str(payload["knowledge_source_id"]),
        sensed_object_id=str(payload["sensed_object_id"]),
        machine_condition_id=str(payload["machine_condition_id"]),
        severity=severity,
        belief=belief,
        timestamp=timestamp,
        dc_id=str(payload.get("dc_id", "")),
        explanation=str(payload.get("explanation", "")),
        recommendations=str(payload.get("recommendations", "")),
        additional_info=str(payload.get("additional_info", "")),
        prognostic=prognostic,
        degraded=bool(payload.get("degraded", False)),
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
