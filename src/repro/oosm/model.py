"""The OOSM object model and store (§4.2–§4.4).

Entities are objects with properties and relationships to other
entities.  The :class:`ShipModel` is the §4.4 API: "functions to
retrieve specific object instances, to view the values of properties,
to update their properties and relationships, and to create and delete
instances".  The model holds structure only: the report repository
role ("It also serves as a repository of diagnostic conclusions") is
the PDME's partition log (:mod:`repro.pdme.shard`), and the model's
bus carries the post-fusion "new data" announcement of each report
the log wrote (:meth:`ShipModel.post_report`).

Relationship kinds used by the prototype (§4.2 names them "part-of,
whole and refers-to" plus proximity and flow in §10.1):

* ``part-of``    — component → assembly (a DAG; each part one whole)
* ``proximate-to`` — symmetric spatial adjacency
* ``refers-to``  — abstract item → subject (report → machine, ...)
* ``flow``       — directed fluid/electrical/mechanical energy flow
* ``monitors``   — sensor → machine it instruments
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.common.errors import OosmError
from repro.common.ids import IdAllocator, ObjectId
from repro.oosm.events import (
    EntityCreated,
    EntityDeleted,
    EventBus,
    PropertyChanged,
    RelationshipAdded,
    RelationshipRemoved,
    ReportBatchPosted,
    ReportPosted,
)
from repro.oosm.schema import TypeRegistry, default_types
from repro.protocol.report import FailurePredictionReport

#: Relationship kinds known to the model.  ``part-of`` is constrained
#: to a forest (one whole per part); ``proximate-to`` is symmetric.
RELATIONSHIP_KINDS = ("part-of", "proximate-to", "refers-to", "flow", "monitors")


@dataclass
class Entity:
    """One OOSM object instance.

    Properties are an open key→value mapping; §4.2's "common
    properties include name, manufacturer, energy usage, capacity, and
    location".  Mutation must go through :class:`ShipModel` so that
    change events fire.
    """

    id: ObjectId
    type_name: str
    properties: dict[str, Any] = field(default_factory=dict)

    def get(self, name: str, default: Any = None) -> Any:
        """Read a property value."""
        return self.properties.get(name, default)

    @property
    def name(self) -> str:
        """The conventional human-readable name property."""
        return str(self.properties.get("name", self.id))


@dataclass(frozen=True)
class Relationship:
    """A directed, typed edge between two entities."""

    kind: str
    source_id: ObjectId
    target_id: ObjectId


class ShipModel:
    """The in-memory OOSM store with change events.

    Parameters
    ----------
    types:
        Entity-type registry (defaults to :func:`default_types`).
    bus:
        Event bus; a fresh private bus is created if not given.
    """

    def __init__(
        self,
        types: TypeRegistry | None = None,
        bus: EventBus | None = None,
    ) -> None:
        self.types = types if types is not None else default_types()
        self.bus = bus if bus is not None else EventBus()
        self._entities: dict[ObjectId, Entity] = {}
        self._out: dict[tuple[ObjectId, str], set[ObjectId]] = {}
        self._in: dict[tuple[ObjectId, str], set[ObjectId]] = {}
        self._ids = IdAllocator()
        #: Monotone structural version: bumped on every mutation that
        #: changes what a query against this model could observe
        #: (entities, properties, relationships).
        #: Caches key derived views — the networkx export, gateway
        #: response documents — by this number: equal version, equal
        #: answer.
        self._version = 0
        #: Version-keyed memo for derived views (see
        #: :func:`repro.oosm.query.to_graph`).  Maps an arbitrary cache
        #: key to ``(version, value)``; consumers must treat cached
        #: values as read-only.
        self.derived_cache: dict[Any, tuple[int, Any]] = {}

    @property
    def version(self) -> int:
        """Current structural version (see ``_version``)."""
        return self._version

    def _bump(self) -> None:
        self._version += 1

    # -- instances (§4.4: create/retrieve/delete) -------------------------
    def create(
        self, type_name: str, *, id: ObjectId | None = None, **properties: Any
    ) -> Entity:
        """Create an entity of a registered type.

        An id is allocated from the type name unless given explicitly.
        """
        if type_name not in self.types:
            raise OosmError(f"unknown entity type {type_name!r}")
        eid = id if id is not None else self._ids.new(_id_prefix(type_name))
        if eid in self._entities:
            raise OosmError(f"entity id {eid!r} already exists")
        entity = Entity(eid, type_name, dict(properties))
        self._entities[eid] = entity
        self._bump()
        self.bus.publish(EntityCreated(eid, type_name))
        return entity

    def get(self, entity_id: ObjectId) -> Entity:
        """Retrieve an entity by id."""
        try:
            return self._entities[entity_id]
        except KeyError:
            raise OosmError(f"no entity {entity_id!r}") from None

    def __contains__(self, entity_id: ObjectId) -> bool:
        return entity_id in self._entities

    def __len__(self) -> int:
        return len(self._entities)

    def delete(self, entity_id: ObjectId) -> None:
        """Delete an entity and detach all of its relationships."""
        entity = self.get(entity_id)
        for kind in RELATIONSHIP_KINDS:
            for other in list(self._out.get((entity_id, kind), ())):
                self.unrelate(entity_id, kind, other)
            for other in list(self._in.get((entity_id, kind), ())):
                self.unrelate(other, kind, entity_id)
        del self._entities[entity_id]
        self._bump()
        self.bus.publish(EntityDeleted(entity_id, entity.type_name))

    def entities(self, type_name: str | None = None, kind_of: str | None = None) -> Iterator[Entity]:
        """Iterate entities, optionally filtered by exact type or by
        kind-of ancestry."""
        for e in self._entities.values():
            if type_name is not None and e.type_name != type_name:
                continue
            if kind_of is not None and not self.types.is_kind_of(e.type_name, kind_of):
                continue
            yield e

    def find(self, name: str) -> Entity:
        """Find the unique entity with the given name property."""
        matches = [e for e in self._entities.values() if e.get("name") == name]
        if not matches:
            raise OosmError(f"no entity named {name!r}")
        if len(matches) > 1:
            raise OosmError(f"name {name!r} is ambiguous ({len(matches)} entities)")
        return matches[0]

    # -- properties (§4.4: view/update) ------------------------------------
    def set_property(self, entity_id: ObjectId, name: str, value: Any) -> None:
        """Update a property, firing PropertyChanged when it differs."""
        entity = self.get(entity_id)
        old = entity.properties.get(name)
        if old == value:
            return
        entity.properties[name] = value
        self._bump()
        self.bus.publish(PropertyChanged(entity_id, name, old, value))

    def get_property(self, entity_id: ObjectId, name: str, default: Any = None) -> Any:
        """Read a property value by entity id."""
        return self.get(entity_id).get(name, default)

    # -- relationships -------------------------------------------------------
    def relate(self, source_id: ObjectId, kind: str, target_id: ObjectId) -> None:
        """Add a relationship edge (idempotent)."""
        _check_kind(kind)
        if source_id == target_id:
            raise OosmError(f"entity {source_id!r} cannot relate to itself")
        self.get(source_id)
        self.get(target_id)
        if kind == "part-of":
            existing = self._out.get((source_id, kind), set())
            if existing and target_id not in existing:
                raise OosmError(
                    f"{source_id!r} is already part of {next(iter(existing))!r}"
                )
            if source_id in self.parts_closure_ids(target_id, up=True):
                raise OosmError("part-of cycle rejected")
        if target_id in self._out.get((source_id, kind), ()):
            return
        self._out.setdefault((source_id, kind), set()).add(target_id)
        self._in.setdefault((target_id, kind), set()).add(source_id)
        if kind == "proximate-to":
            self._out.setdefault((target_id, kind), set()).add(source_id)
            self._in.setdefault((source_id, kind), set()).add(target_id)
        self._bump()
        self.bus.publish(RelationshipAdded(kind, source_id, target_id))

    def unrelate(self, source_id: ObjectId, kind: str, target_id: ObjectId) -> None:
        """Remove a relationship edge (no-op if absent)."""
        _check_kind(kind)
        out = self._out.get((source_id, kind), set())
        if target_id not in out:
            return
        out.discard(target_id)
        self._in.get((target_id, kind), set()).discard(source_id)
        if kind == "proximate-to":
            self._out.get((target_id, kind), set()).discard(source_id)
            self._in.get((source_id, kind), set()).discard(target_id)
        self._bump()
        self.bus.publish(RelationshipRemoved(kind, source_id, target_id))

    def related(self, entity_id: ObjectId, kind: str) -> frozenset[ObjectId]:
        """Targets of ``entity --kind--> *`` edges."""
        _check_kind(kind)
        return frozenset(self._out.get((entity_id, kind), ()))

    def related_in(self, entity_id: ObjectId, kind: str) -> frozenset[ObjectId]:
        """Sources of ``* --kind--> entity`` edges."""
        _check_kind(kind)
        return frozenset(self._in.get((entity_id, kind), ()))

    def relationships(self) -> Iterator[Relationship]:
        """Iterate every directed edge once (symmetric pairs collapse)."""
        seen: set[tuple[str, ObjectId, ObjectId]] = set()
        for (src, kind), targets in self._out.items():
            for dst in targets:
                if kind == "proximate-to":
                    key = (kind, *sorted((src, dst)))
                    if key in seen:
                        continue
                    seen.add(key)
                yield Relationship(kind, src, dst)

    def parts_closure_ids(self, entity_id: ObjectId, up: bool = False) -> set[ObjectId]:
        """Transitive part-of closure: descendants (default) or ancestors."""
        out: set[ObjectId] = set()
        frontier = [entity_id]
        while frontier:
            cur = frontier.pop()
            nbrs = (
                self._out.get((cur, "part-of"), ())
                if up
                else self._in.get((cur, "part-of"), ())
            )
            for n in nbrs:
                if n not in out:
                    out.add(n)
                    frontier.append(n)
        return out

    # -- report announcements (§4.5, §5.1 step 2) ---------------------------
    def check_sensed(self, report: FailurePredictionReport) -> None:
        """Raise :class:`OosmError` unless the model holds the report's
        sensed object."""
        if report.sensed_object_id not in self._entities:
            raise OosmError(
                f"report references unknown sensed object {report.sensed_object_id!r}"
            )

    def post_report(self, report: FailurePredictionReport) -> None:
        """Announce one report the PDME has stored and fused.

        Publishes :class:`ReportPosted` — the "new data" message of
        §5.1 step 2 — and retains nothing: the report lives in the
        PDME's partition log.
        """
        self.check_sensed(report)
        self.bus.publish(ReportPosted(report))

    def post_reports(self, reports: list[FailurePredictionReport]) -> None:
        """Announce a batch of stored and fused reports in one posting.

        Every sensed object is checked before anything is announced.
        If a :class:`ReportBatchPosted` subscriber exists, one batch
        event is published; otherwise each report is announced through
        :class:`ReportPosted` exactly as if posted one at a time —
        subscribers see the same reports in the same order either way.
        """
        for report in reports:
            self.check_sensed(report)
        if not reports:
            return
        if self.bus.handler_count(ReportBatchPosted) > 0:
            self.bus.publish(ReportBatchPosted(tuple(reports)))
        else:
            for report in reports:
                self.bus.publish(ReportPosted(report))


def _check_kind(kind: str) -> None:
    if kind not in RELATIONSHIP_KINDS:
        raise OosmError(f"unknown relationship kind {kind!r}; use one of {RELATIONSHIP_KINDS}")


def _id_prefix(type_name: str) -> str:
    # "induction-motor" -> "inductionmotor" keeps ids compact and valid.
    return type_name.replace("-", "")
