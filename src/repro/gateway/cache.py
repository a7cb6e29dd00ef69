"""The versioned response cache behind the gateway read path.

No time-based expiry (wall clocks are banned in this tree, and
staleness bugs hide behind TTLs): every entry stores the version of the
state its value was derived from, and a hit requires that version to
equal the current one, so invalidation is the version moving, never a
side effect someone can forget.

The cache keeps one slot per query *shape* (endpoint plus params), so a
build at a newer version replaces the one it supersedes instead of
sitting beside it.  What is versioned how:

* fused documents — the fleet document, one object's health, the
  alarm list — by ``(as_of, intake_watermark)``: the PDME's
  evaluation time and its count of reports offered.  Object health
  also carries :attr:`ShipModel.version`, because the part-of closure
  it covers is entity state;
* entity documents (one managed object, id listings) by
  :attr:`ShipModel.version`.

A write moves the watermark (and usually ``as_of``), so the next query
of each shape misses, recomputes and overwrites its slot; repeat
queries between writes are O(1) dict hits returning the bytes the
uncached path would produce (``benchmarks/gates.py`` and the gateway
tests compare them).  The providers publish a new watermark only after
the write is fused, so a slot holding it is never built over the state
from before the write.

A miss need not recompute everything.  The gateway also keeps each
fleet-document diagnostic entry's rendered text, keyed by its series
key and checked against the entry's value, so a write re-renders only
the diagnostic entries it changed (see
:meth:`repro.gateway.service.FleetGateway.fleet_health_json`).

Shapes come from query params (object ids, thresholds, type filters),
so slots are LRU-evicted at :data:`MAX_ENTRIES`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable

from repro.obs.registry import MetricsRegistry, default_registry

#: Response-cache capacity, in query shapes.  One fleet document
#: dominates the byte budget, so a few hundred slots cover every
#: distinct live query shape.
MAX_ENTRIES = 512


class VersionedCache:
    """A bounded LRU of one versioned response per query shape, with obs
    counters.

    ``get``/``put`` are the whole interface; the *caller* names the
    shape and the version of the source state, which is what makes hits
    sound.  Metrics land in the shared registry:

    * ``gateway.cache.hits`` / ``gateway.cache.misses`` — hit-rate
      visibility for capacity planning;
    * ``gateway.cache.evictions`` — thrash detector (rising evictions
      at a steady working set means :data:`MAX_ENTRIES` is too small).
    """

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        #: ``shape -> (version, value)``.
        self._entries: OrderedDict[Hashable, tuple[Hashable, Any]] = OrderedDict()
        reg = metrics if metrics is not None else default_registry()
        self._m_hits = reg.counter("gateway.cache.hits")
        self._m_misses = reg.counter("gateway.cache.misses")
        self._m_evictions = reg.counter("gateway.cache.evictions")

    def get(self, shape: Hashable, version: Hashable) -> Any | None:
        """The value cached for ``shape`` at exactly ``version``, or
        None; hits refresh LRU recency."""
        entry = self._entries.get(shape)
        if entry is None or entry[0] != version:
            self._m_misses.inc()
            return None
        self._entries.move_to_end(shape)
        self._m_hits.inc()
        return entry[1]

    def put(self, shape: Hashable, version: Hashable, value: Any) -> Any:
        """Store ``value`` as ``shape``'s response at ``version``,
        replacing whatever the slot held, and return it; evicts the LRU
        tail if full."""
        self._entries[shape] = (version, value)
        self._entries.move_to_end(shape)
        while len(self._entries) > MAX_ENTRIES:
            self._entries.popitem(last=False)
            self._m_evictions.inc()
        return value

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hits(self) -> int:
        return int(self._m_hits.value)

    @property
    def misses(self) -> int:
        return int(self._m_misses.value)
