"""Typed gateway resources over OOSM entities and fused PDME state.

The split follows the Cumulocity ``c8y_api.model`` layout the ROADMAP
names as the reference — one small typed class per API resource kind —
mapped onto MPROS concepts:

* :class:`ManagedObject`  — an OOSM entity plus its relationship view
* :class:`Measurement`    — one (severity, belief) sample about an
  object at a time, the time-series view of a §7 report
* :class:`Report`         — one stored failure-prediction report with
  its log identity (``intake_seq`` + row id)
* :class:`Alarm`          — a fused diagnostic state crossing the
  alarm threshold
* :class:`Subscription`   — a live push registration riding the OOSM
  event bus

Every resource renders through :meth:`to_json` into a plain JSON-ready
dict with deterministically ordered collections, so
:func:`repro.protocol.canonical.canonical_dumps` yields byte-stable
responses — the property the gateway's golden tests and the
cached-vs-uncached ratio gate (``benchmarks/gates.py``) both pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.ids import ObjectId
from repro.oosm.model import ShipModel
from repro.oosm.query import system_of
from repro.protocol.canonical import FLOAT_DECIMALS, report_to_dict
from repro.protocol.report import FailurePredictionReport


def _rounded(value: float) -> float:
    return round(float(value), FLOAT_DECIMALS) + 0.0


@dataclass(frozen=True)
class ManagedObject:
    """One OOSM entity as an API resource.

    Relationship sets are materialized sorted so the rendering is
    byte-stable regardless of the model's internal set ordering.
    """

    id: ObjectId
    type: str
    name: str
    properties: dict[str, Any]
    parent: ObjectId | None
    system: ObjectId
    child_assets: tuple[ObjectId, ...]
    proximate: tuple[ObjectId, ...]
    flows_to: tuple[ObjectId, ...]
    monitored_by: tuple[ObjectId, ...]

    @classmethod
    def from_entity(cls, model: ShipModel, entity_id: ObjectId) -> "ManagedObject":
        entity = model.get(entity_id)
        wholes = model.related(entity_id, "part-of")
        return cls(
            id=entity.id,
            type=entity.type_name,
            name=entity.name,
            properties=dict(entity.properties),
            parent=next(iter(wholes)) if wholes else None,
            system=system_of(model, entity_id),
            child_assets=tuple(sorted(model.related_in(entity_id, "part-of"))),
            proximate=tuple(sorted(model.related(entity_id, "proximate-to"))),
            flows_to=tuple(sorted(model.related(entity_id, "flow"))),
            monitored_by=tuple(sorted(model.related_in(entity_id, "monitors"))),
        )

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "type": self.type,
            "name": self.name,
            "properties": dict(self.properties),
            "parent": self.parent,
            "system": self.system,
            "childAssets": list(self.child_assets),
            "proximate": list(self.proximate),
            "flowsTo": list(self.flows_to),
            "monitoredBy": list(self.monitored_by),
        }


@dataclass(frozen=True)
class Measurement:
    """One condition sample about an object — the series view of a
    report, without the prose fields."""

    object_id: ObjectId
    condition_id: ObjectId
    source_id: ObjectId
    time: float
    severity: float
    belief: float
    degraded: bool

    @classmethod
    def from_report(cls, report: FailurePredictionReport) -> "Measurement":
        return cls(
            object_id=report.sensed_object_id,
            condition_id=report.machine_condition_id,
            source_id=report.knowledge_source_id,
            time=report.timestamp,
            severity=report.severity,
            belief=report.belief,
            degraded=report.degraded,
        )

    def to_json(self) -> dict:
        return {
            "object": self.object_id,
            "condition": self.condition_id,
            "source": self.source_id,
            "time": _rounded(self.time),
            "severity": _rounded(self.severity),
            "belief": _rounded(self.belief),
            "degraded": self.degraded,
        }


@dataclass(frozen=True)
class Report:
    """One stored failure-prediction report with its log identity.

    ``intake_seq`` is the router-stamped global arrival order (None for
    rows predating the sharded log); ``row_id`` identifies the row
    within its partition.  Together they are the keyset-pagination
    coordinate the log index seeks on.
    """

    intake_seq: int | None
    row_id: int
    report_id: str | None
    report: FailurePredictionReport

    def to_json(self) -> dict:
        return {
            "intakeSeq": self.intake_seq,
            "rowId": self.row_id,
            "reportId": self.report_id,
            "report": report_to_dict(self.report),
        }


@dataclass(frozen=True)
class Alarm:
    """A fused diagnostic state whose severity crossed the threshold.

    Derived resources: alarms are *views* of the fused snapshot, not
    stored rows — re-deriving at the same ``(as_of, watermark)`` yields
    the identical list, which is why alarm responses are cacheable.
    """

    object_id: ObjectId
    group: str
    condition_id: ObjectId
    severity: float
    belief: float
    status: str  # "ACTIVE" (listings only contain raised alarms)

    def to_json(self) -> dict:
        return {
            "object": self.object_id,
            "group": self.group,
            "condition": self.condition_id,
            "severity": _rounded(self.severity),
            "belief": _rounded(self.belief),
            "status": self.status,
        }


@dataclass
class Subscription:
    """A live push registration on the gateway.

    Handlers receive :class:`FailurePredictionReport` objects as they
    are posted to the OOSM (§4.5's "without the need to poll"),
    optionally filtered to one sensed object.  ``delivered`` counts
    pushes; ``cancel()`` detaches from the bus.
    """

    id: str
    object_id: ObjectId | None
    handler: Callable[[FailurePredictionReport], None]
    delivered: int = 0
    active: bool = True
    _detach: Callable[[], None] | None = field(default=None, repr=False)

    def cancel(self) -> None:
        if self.active and self._detach is not None:
            self._detach()
        self.active = False

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "object": self.object_id,
            "delivered": self.delivered,
            "active": self.active,
        }
