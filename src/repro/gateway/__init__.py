"""The fleet query gateway: MPROS's high-throughput read path.

A typed resource layer (managed objects, measurements, reports,
alarms, subscriptions) over the OOSM and fused PDME state, engineered
for the "millions of users" serving claim: versioned snapshot caching
keyed by intake watermarks, keyset pagination over the durable report
log, push subscriptions riding the OOSM event bus, and read replicas
over the sharded PDME's partition logs so readers never contend with
ingest.  See :mod:`repro.gateway.service` for the architecture notes.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.gateway.cache": ["DEFAULT_MAX_ENTRIES", "VersionedCache"],
    "repro.gateway.pagination": [
        "DEFAULT_PAGE_SIZE",
        "MAX_PAGE_SIZE",
        "Page",
        "clamp_limit",
        "decode_cursor",
        "encode_cursor",
        "page_sequence",
    ],
    "repro.gateway.replica": ["ReadReplica"],
    "repro.gateway.resources": [
        "Alarm",
        "ManagedObject",
        "Measurement",
        "Report",
        "Subscription",
    ],
    "repro.gateway.server": ["GatewayHTTPServer", "serve"],
    "repro.gateway.service": [
        "FleetGateway",
        "gateway_for_executive",
        "gateway_for_sharded",
    ],
})
