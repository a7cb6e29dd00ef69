"""Graph queries over the OOSM (§10.1 "future directions" realized).

The paper's knowledge-fusion extensions reason over multi-level
structure ("the health of a system based on the health of a
constituent part"), spatial proximity ("a device is vibrating because a
component next to it is broken") and flows ("one component passing
fouled fluids on to other components downstream").  These helpers give
KF and the PDME those views.  :func:`to_graph` and :func:`flow_path`
are built on networkx, which they import when called.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.ids import ObjectId
from repro.oosm.model import ShipModel

if TYPE_CHECKING:
    import networkx as nx


def to_graph(model: ShipModel, kinds: tuple[str, ...] | None = None) -> nx.MultiDiGraph:
    """Export the model as a networkx multigraph (edges keyed by kind).

    The export is memoized against the model's structural version: a
    hot query path (gateway topology endpoints, repeated
    :func:`flow_path` calls) rebuilding the full ``MultiDiGraph`` per
    call was pure waste, since the model rarely changes between reads.
    Any mutation bumps :attr:`ShipModel.version` and the next call
    rebuilds.  The returned graph is shared — treat it as read-only;
    callers that need to mutate must ``.copy()`` it.
    """
    import networkx as nx

    key = ("to_graph", kinds)
    cached = model.derived_cache.get(key)
    if cached is not None and cached[0] == model.version:
        return cached[1]
    g = nx.MultiDiGraph()
    for e in model.entities():
        g.add_node(e.id, type=e.type_name, **e.properties)
    for r in model.relationships():
        if kinds is None or r.kind in kinds:
            g.add_edge(r.source_id, r.target_id, key=r.kind, kind=r.kind)
            if r.kind == "proximate-to":
                g.add_edge(r.target_id, r.source_id, key=r.kind, kind=r.kind)
    model.derived_cache[key] = (model.version, g)
    return g


def parts_closure(model: ShipModel, whole_id: ObjectId) -> set[ObjectId]:
    """All transitive parts of an assembly (excluding itself)."""
    return model.parts_closure_ids(whole_id, up=False)


def system_of(model: ShipModel, part_id: ObjectId) -> ObjectId:
    """The outermost assembly a part belongs to (itself if top-level).

    Supports §10.1 multi-level reasoning: reports about a part roll up
    to the containing system.
    """
    current = part_id
    while True:
        wholes = model.related(current, "part-of")
        if not wholes:
            return current
        current = next(iter(wholes))


def proximate_entities(
    model: ShipModel, entity_id: ObjectId, hops: int = 1
) -> set[ObjectId]:
    """Entities within ``hops`` proximity edges of the given one.

    Hop 1 is direct adjacency; larger values widen the spatial
    neighbourhood (for "the vibrating neighbour" heuristic).
    """
    if hops < 1:
        return set()
    seen = {entity_id}
    frontier = {entity_id}
    for _ in range(hops):
        nxt: set[ObjectId] = set()
        for eid in frontier:
            nxt |= model.related(eid, "proximate-to") - seen
        seen |= nxt
        frontier = nxt
        if not frontier:
            break
    seen.discard(entity_id)
    return seen


def downstream_of(model: ShipModel, entity_id: ObjectId) -> set[ObjectId]:
    """Entities reachable along flow edges — who receives this
    component's (possibly fouled) output."""
    out: set[ObjectId] = set()
    frontier = [entity_id]
    while frontier:
        cur = frontier.pop()
        for nxt in model.related(cur, "flow"):
            if nxt not in out:
                out.add(nxt)
                frontier.append(nxt)
    out.discard(entity_id)
    return out


def upstream_of(model: ShipModel, entity_id: ObjectId) -> set[ObjectId]:
    """Entities whose flow output reaches this component."""
    out: set[ObjectId] = set()
    frontier = [entity_id]
    while frontier:
        cur = frontier.pop()
        for prv in model.related_in(cur, "flow"):
            if prv not in out:
                out.add(prv)
                frontier.append(prv)
    out.discard(entity_id)
    return out


def flow_path(model: ShipModel, source_id: ObjectId, target_id: ObjectId) -> list[ObjectId]:
    """Shortest flow path between two components ([] if none)."""
    import networkx as nx

    g = to_graph(model, kinds=("flow",))
    try:
        return nx.shortest_path(g, source_id, target_id)
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return []
