"""Multiprocessing DC farm.

One physical DC is a single embedded CPU, but the PDME-side replay of a
whole ship (hundreds of DCs) benefits from process parallelism.
:class:`DcReplaySpec` describes one DC's scenario (machines, schedules,
faults, seeds) and :func:`replay_fleet` runs many specs serially or
across a pool.  DCs share nothing (each spec derives its own RNG streams
and builds its own kernel), so the merged report stream is bit-identical
either way — property the golden tests pin down.

Workers are module-level functions so they pickle cleanly.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.common.errors import MprosError
from repro.protocol.report import FailurePredictionReport


@dataclass(frozen=True)
class DcReplaySpec:
    """Everything needed to replay one DC's scenario in isolation.

    Frozen and picklable: a spec crosses the process-pool boundary, the
    worker rebuilds the DC from it, and the produced reports come back.
    All randomness derives from ``(seed, dc_index)``, so a spec replays
    to the same report stream in any process.

    Attributes
    ----------
    dc_index:
        Position in the fleet (also salts the RNG streams).
    seed:
        Fleet-wide base seed.
    n_machines:
        Machines attached to this DC (vibration channels 0..n-1).
    duration_s:
        Simulated seconds to run.
    vibration_period / process_period:
        Standard test schedule periods.
    n_samples / sample_rate:
        Vibration test block geometry.
    fault_kind:
        Name of a :class:`~repro.plant.faults.FaultKind` to inject on
        ``fault_machine`` (None = healthy DC).
    fault_onset / fault_end / fault_severity:
        Fault profile; ``fault_end`` None gives a constant (seeded)
        fault, otherwise an exponential progression to ``fault_end``.
    fault_machine:
        Index of the machine carrying the fault.
    """

    dc_index: int
    seed: int
    n_machines: int = 1
    duration_s: float = 3600.0
    vibration_period: float = 600.0
    process_period: float = 60.0
    n_samples: int = 32768
    sample_rate: float = 16384.0
    fault_kind: str | None = None
    fault_onset: float = 0.0
    fault_end: float | None = None
    fault_severity: float = 1.0
    fault_machine: int = 0

    def machine_ids(self) -> tuple[str, ...]:
        """Sensed-object ids of this DC's machines, channel order."""
        return tuple(
            f"obj:fleet-dc{self.dc_index}-m{j}" for j in range(self.n_machines)
        )


def replay_dc(spec: DcReplaySpec) -> list[FailurePredictionReport]:
    """Replay one DC scenario; returns its report stream in sink order.

    Builds a private kernel, metrics registry and simulators (nothing
    shared, nothing global), runs the standard schedules for
    ``duration_s`` and collects every report the DC produces.
    """
    # Local imports keep worker start-up (and pickling surface) small.
    from repro.common.rng import derive_rng, make_rng
    from repro.dc.concentrator import DataConcentrator
    from repro.netsim.kernel import EventKernel
    from repro.obs.registry import MetricsRegistry
    from repro.plant.faults import FaultKind
    from repro.plant.chiller import ChillerSimulator
    from repro.plant.faults import progressive, seeded

    if spec.n_machines < 1:
        raise MprosError("spec needs at least one machine")
    root = make_rng(spec.seed)
    metrics = MetricsRegistry()
    kernel = EventKernel(metrics=metrics)
    reports: list[FailurePredictionReport] = []
    dc = DataConcentrator(
        dc_id=f"dc:{spec.dc_index}",
        kernel=kernel,
        sink=reports.append,
        rng=derive_rng(root, "dc", spec.dc_index),
        sample_rate=spec.sample_rate,
        metrics=metrics,
    )
    for j, machine_id in enumerate(spec.machine_ids()):
        sim = ChillerSimulator(
            rng=derive_rng(root, "chiller", spec.dc_index, j)
        )
        if spec.fault_kind is not None and j == spec.fault_machine:
            kind = FaultKind[spec.fault_kind]
            if spec.fault_end is None:
                sim.inject(
                    seeded(kind, onset=spec.fault_onset, severity=spec.fault_severity)
                )
            else:
                sim.inject(
                    progressive(
                        kind,
                        onset=spec.fault_onset,
                        end=spec.fault_end,
                        peak=spec.fault_severity,
                    )
                )
        dc.attach_machine(
            machine_id,
            f"Fleet machine {spec.dc_index}.{j}",
            sim,
            vibration_channel=j,
        )
    dc.schedule_standard_tests(
        vibration_period=spec.vibration_period,
        process_period=spec.process_period,
    )
    kernel.run_until(spec.duration_s)
    return reports


def merge_fleet_reports(
    streams: list[list[FailurePredictionReport]],
) -> list[FailurePredictionReport]:
    """Deterministic PDME-side merge of per-DC report streams.

    Concatenates in DC order then stable-sorts by timestamp, so
    same-timestamp reports keep DC order — the merged list is a pure
    function of the streams, independent of which process produced
    which."""
    merged: list[FailurePredictionReport] = []
    for stream in streams:
        merged.extend(stream)
    merged.sort(key=lambda r: r.timestamp)
    return merged


def replay_fleet(
    specs: list[DcReplaySpec], n_workers: int = 1
) -> list[FailurePredictionReport]:
    """Replay many DC scenarios and merge their report streams.

    ``n_workers=1`` runs in-process; more workers map specs over a
    process pool.  The output is bit-identical either way (each DC is
    self-contained and the merge is deterministic)."""
    if n_workers < 1:
        raise MprosError("n_workers must be >= 1")
    if n_workers == 1 or len(specs) < 2:
        streams = [replay_dc(s) for s in specs]
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            streams = list(pool.map(replay_dc, specs))
    return merge_fleet_reports(streams)
