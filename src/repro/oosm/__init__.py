"""§4 Object-Oriented Ship Model.

A persistent repository for machinery state used for communication
between the prognostic and diagnostic software modules.  Entities have
properties and relationships (part-of, proximity, kind-of, refers-to,
flow); clients are notified of changes through the event model instead
of polling; persistence maps objects onto a relational database
(sqlite3) in the background.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.oosm.events": [
        "EntityCreated",
        "EntityDeleted",
        "EventBus",
        "PropertyChanged",
        "RelationshipAdded",
        "RelationshipRemoved",
        "ReportBatchPosted",
        "ReportPosted",
    ],
    "repro.oosm.model": ["Entity", "Relationship", "ShipModel"],
    "repro.oosm.persistence": ["ReportStore", "load_model", "save_model"],
    "repro.oosm.query": [
        "downstream_of",
        "parts_closure",
        "proximate_entities",
        "system_of",
        "to_graph",
    ],
    "repro.oosm.schema": ["EntityType", "TypeRegistry", "default_types"],
    "repro.oosm.shipyard": ["build_chilled_water_ship"],
})
