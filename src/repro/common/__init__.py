"""Shared substrate utilities: clocks, units, RNG discipline, buffers.

Everything in :mod:`repro` that needs time, randomness or identifier
allocation goes through this package so that whole-system runs are
deterministic and replayable.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.common.clock": ["Clock", "SimulatedClock"],
    "repro.common.errors": [
        "MprosError",
        "ProtocolError",
        "OosmError",
        "SbfrError",
        "FusionError",
        "AcquisitionError",
        "SchedulingError",
        "NetworkError",
    ],
    "repro.common.ids": ["IdAllocator", "ObjectId"],
    "repro.common.ringbuffer": ["RingBuffer"],
    "repro.common.rng": ["derive_rng", "make_rng"],
    "repro.common.units": [
        "SECONDS_PER_DAY",
        "SECONDS_PER_HOUR",
        "SECONDS_PER_MONTH",
        "SECONDS_PER_WEEK",
        "days",
        "hours",
        "hz",
        "months",
        "rpm_to_hz",
        "weeks",
    ],
})
