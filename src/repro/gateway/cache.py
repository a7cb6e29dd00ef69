"""The versioned response cache behind the gateway read path.

No time-based expiry (wall clocks are banned in this tree, and
staleness bugs hide behind TTLs): every key embeds the version of the
state its value was derived from, so invalidation is the key changing,
never a side effect someone can forget.

What is keyed how:

* fused documents — the fleet snapshot and its JSON, one object's
  health, the alarm list — by ``(endpoint, params, as_of,
  intake_watermark)``: the PDME's evaluation time and its count of
  reports offered.  Object health also carries
  :attr:`ShipModel.version`, because the part-of closure it covers is
  entity state;
* entity documents (one managed object, id listings) by
  :attr:`ShipModel.version`.

A write moves the watermark (and usually ``as_of``), so the next query
of each shape misses and recomputes; repeat queries between writes are
O(1) dict hits returning the bytes the uncached path would produce
(the bench compares them every run).  The providers publish a new
watermark only after the write is fused, so a key holding it is never
built over the state from before the write.

A miss need not recompute everything.  The gateway also keeps each
fleet-document diagnostic entry's rendered text, keyed by its series
key and checked against the entry's value, so a write re-renders only
the diagnostic entries it changed (see
:meth:`repro.gateway.service.FleetGateway.fleet_health_json`).

Entries are LRU-evicted at ``max_entries``; superseded versions age
out of the LRU naturally since nothing ever asks for them again.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable

from repro.common.errors import GatewayError
from repro.obs.registry import MetricsRegistry, default_registry

#: Default response-cache capacity.  Keys are (endpoint, params,
#: version) tuples; one fleet snapshot dominates the byte budget, so
#: a few hundred entries cover every distinct live query shape.
DEFAULT_MAX_ENTRIES = 512


class VersionedCache:
    """A bounded LRU for version-keyed responses, with obs counters.

    ``get``/``put`` are the whole interface; the *caller* builds keys
    that embed the source-state version, which is what makes hits
    sound.  Metrics land in the shared registry:

    * ``gateway.cache.hits`` / ``gateway.cache.misses`` — hit-rate
      visibility for capacity planning;
    * ``gateway.cache.evictions`` — thrash detector (rising evictions
      at a steady working set means ``max_entries`` is too small).
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_entries < 1:
            raise GatewayError(
                f"cache needs at least one entry, got {max_entries}"
            )
        self.max_entries = max_entries
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        reg = metrics if metrics is not None else default_registry()
        self._m_hits = reg.counter("gateway.cache.hits")
        self._m_misses = reg.counter("gateway.cache.misses")
        self._m_evictions = reg.counter("gateway.cache.evictions")

    def get(self, key: Hashable) -> Any | None:
        """The cached value, or None; hits refresh LRU recency."""
        try:
            value = self._entries[key]
        except KeyError:
            self._m_misses.inc()
            return None
        self._entries.move_to_end(key)
        self._m_hits.inc()
        return value

    def put(self, key: Hashable, value: Any) -> Any:
        """Store and return ``value``, evicting the LRU tail if full."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._m_evictions.inc()
        return value

    def clear(self) -> int:
        """Drop everything (administrative reset); returns the count."""
        n = len(self._entries)
        self._entries.clear()
        return n

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hits(self) -> int:
        return int(self._m_hits.value)

    @property
    def misses(self) -> int:
        return int(self._m_misses.value)
