"""The common knowledge-source interface.

§7.1: "One of the goals of the MPROS system is to encourage the
incorporation of many diverse expert systems supplying diagnostic and
prognostic conclusions based upon similar, overlapping or entirely
disjoint sensor readings."  Every algorithm suite therefore consumes
one :class:`SourceContext` (whatever slice of it it cares about) and
returns §7 reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.common.ids import ObjectId
from repro.dsp.batch import SpectralView
from repro.plant.rotating import MachineKinematics
from repro.protocol.report import FailurePredictionReport


@dataclass
class SourceContext:
    """Everything a knowledge source may draw on for one analysis pass.

    Attributes
    ----------
    sensed_object_id:
        The machine under analysis (§7: SensedObjectID).
    timestamp:
        Effective time of the measurements, simulated seconds.
    waveform / sample_rate:
        Latest vibration block (None for process-only passes).
    process:
        Latest scalar process variables by name.
    kinematics:
        The machine's frequency content (speeds, gears, bearings).
    history:
        Optional recent process snapshots (oldest first) for trending.
    dc_id:
        The data concentrator issuing the analysis.
    spectra:
        Optional precomputed spectral view over ``waveform`` (shared
        with the other machines of the same scan).  Sources that need
        spectra should prefer it — transforms are computed once per
        scan instead of once per source per machine.
    """

    sensed_object_id: ObjectId
    timestamp: float
    waveform: np.ndarray | None = None
    sample_rate: float = 0.0
    process: dict[str, float] = field(default_factory=dict)
    kinematics: MachineKinematics | None = None
    history: list[dict[str, float]] = field(default_factory=list)
    dc_id: ObjectId = ""
    spectra: SpectralView | None = None

    @property
    def load(self) -> float:
        """Load fraction inferred from the pre-rotation vane position
        (the §6.1 'available load indicator'), defaulting to full load."""
        prv = self.process.get("prv_position_pct")
        if prv is None:
            return 1.0
        return float(np.clip(prv / 100.0, 0.0, 1.0))


@runtime_checkable
class KnowledgeSource(Protocol):
    """A diagnostic/prognostic algorithm suite."""

    #: Unique MPROS object id of this knowledge source (§7 KS ID).
    knowledge_source_id: ObjectId

    def analyze(self, ctx: SourceContext) -> list[FailurePredictionReport]:
        """Analyze one context; return zero or more §7 reports."""
        ...  # pragma: no cover - protocol signature
