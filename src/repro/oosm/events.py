"""§4.5 OOSM event model.

"An event model has been implemented for the OOSM, which allows client
programs to be notified of changes to property or relationship values
without the need to poll."  The original used OLE Automation events;
here an in-process synchronous event bus plays that role.  The PDME's
router publishes :class:`ReportPosted` (or one
:class:`ReportBatchPosted`) for every report it stored, once the
report is fused — the "new data" message of §5.1 — and the gateway's
push subscriptions ride it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.common.ids import ObjectId
from repro.protocol.report import FailurePredictionReport


@dataclass(frozen=True)
class PropertyChanged:
    """A property value changed on an entity."""

    entity_id: ObjectId
    name: str
    old: Any
    new: Any


@dataclass(frozen=True)
class RelationshipAdded:
    """A relationship edge was added."""

    kind: str
    source_id: ObjectId
    target_id: ObjectId


@dataclass(frozen=True)
class RelationshipRemoved:
    """A relationship edge was removed."""

    kind: str
    source_id: ObjectId
    target_id: ObjectId


@dataclass(frozen=True)
class EntityCreated:
    """A new entity instance was created."""

    entity_id: ObjectId
    type_name: str


@dataclass(frozen=True)
class EntityDeleted:
    """An entity instance was deleted."""

    entity_id: ObjectId
    type_name: str


@dataclass(frozen=True)
class ReportPosted:
    """A failure-prediction report was stored and fused by the PDME."""

    report: FailurePredictionReport


@dataclass(frozen=True)
class ReportBatchPosted:
    """A batch of reports was stored and fused in one posting.

    Published by :meth:`~repro.oosm.model.ShipModel.post_reports` when
    a batch subscriber exists; carries the reports in posting order so
    one batch delivery is semantically identical to that many
    :class:`ReportPosted` deliveries.
    """

    reports: tuple[FailurePredictionReport, ...]


Event = (
    PropertyChanged
    | RelationshipAdded
    | RelationshipRemoved
    | EntityCreated
    | EntityDeleted
    | ReportPosted
    | ReportBatchPosted
)
Handler = Callable[[Any], None]


class EventBus:
    """Synchronous publish/subscribe keyed by event class.

    Handlers for a class receive every event of exactly that class;
    subscribing to ``object`` receives everything.  Handlers must not
    raise: an exception from one handler is recorded and does not stop
    delivery to the others (§4.9's "robustness to the point of
    long-term unattended operation").
    """

    def __init__(self) -> None:
        self._handlers: dict[type, list[Handler]] = {}
        self.delivery_errors: list[tuple[Handler, Exception]] = []

    def subscribe(self, event_class: type, handler: Handler) -> Callable[[], None]:
        """Register ``handler`` for ``event_class``; returns an
        unsubscribe callable."""
        self._handlers.setdefault(event_class, []).append(handler)

        def unsubscribe() -> None:
            try:
                self._handlers[event_class].remove(handler)
            except (KeyError, ValueError):
                pass

        return unsubscribe

    def publish(self, event: Any) -> int:
        """Deliver an event; returns the number of handlers reached."""
        handlers = list(self._handlers.get(type(event), ()))
        handlers += self._handlers.get(object, ())
        delivered = 0
        for h in handlers:
            try:
                h(event)
                delivered += 1
            except Exception as exc:  # noqa: BLE001 - isolation by design
                self.delivery_errors.append((h, exc))
        return delivered

    def handler_count(self, event_class: type) -> int:
        """Number of live subscriptions for an event class."""
        return len(self._handlers.get(event_class, ()))
