"""The assembled Data Concentrator.

Wires the Figure-5 acquisition chain, the §5.8 database and event
scheduler, and the four algorithm suites into one unit per machinery
space.  Conclusions flow out through a report sink — in the full system
an RPC call to the PDME, in tests any callable.

"The data is processed and then sent to an expert system DLL which
applies stored rules for each equipment type and derives the diagnoses.
The DLL then passes the results back to the DC database."
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.algorithms.base import KnowledgeSource, SourceContext
from repro.algorithms.dli.engine import DliExpertSystem
from repro.algorithms.fuzzy.engine import FuzzyDiagnostics
from repro.algorithms.sbfr_source import SbfrKnowledgeSource
from repro.common.errors import AcquisitionError
from repro.common.ids import ObjectId
from repro.dc.acquisition import AcquisitionChain
from repro.dc.database import DcDatabase
from repro.dc.scheduler import EventScheduler
from repro.dsp.batch import BatchSpectralCache
from repro.hpc.pipeline import FeaturePipeline
from repro.netsim.kernel import EventKernel
from repro.obs.registry import MetricsRegistry, default_registry
from repro.obs.spans import Tracer
from repro.plant.chiller import ChillerSimulator
from repro.plant.faults import SensorFault
from repro.plant.rotating import MachineKinematics
from repro.protocol.report import FailurePredictionReport
from repro.supervisor.quarantine import SensorQuarantine

ReportSink = Callable[[FailurePredictionReport], None]


@dataclass
class MonitoredMachine:
    """One machine this DC is responsible for."""

    machine_id: ObjectId
    name: str
    kinematics: MachineKinematics
    simulator: ChillerSimulator
    vibration_channel: int
    process_history: list[dict[str, float]] = field(default_factory=list)


class DataConcentrator:
    """A DC instance: acquisition + database + scheduler + algorithms.

    Parameters
    ----------
    dc_id:
        §7 DC ID carried on every report.
    kernel:
        Shared discrete-event kernel (time base for schedules).
    sink:
        Callable receiving every produced report (PDME uplink).
    sources:
        Knowledge sources to run; defaults to DLI + fuzzy + SBFR (the
        WNN source needs training first, so it is opt-in via
        :meth:`add_source`).

    Test routines run in batched form: one gather of all machines'
    blocks per scan, one shared spectral cache, and suites offered the
    whole context list at once (``analyze_batch``).
    """

    def __init__(
        self,
        dc_id: ObjectId,
        kernel: EventKernel,
        sink: ReportSink,
        rng: np.random.Generator,
        sample_rate: float = 16384.0,
        sources: list[KnowledgeSource] | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.dc_id = dc_id
        self.kernel = kernel
        self.sink = sink
        self.rng = rng
        self.metrics = metrics if metrics is not None else default_registry()
        self.tracer = Tracer(kernel.clock, self.metrics)
        self.database = DcDatabase()
        self.acquisition = AcquisitionChain(sample_rate, metrics=self.metrics)
        # Scheduler cursors persist into the DC database after every
        # run so a restarted DC resumes its schedules where they stood.
        self.scheduler = EventScheduler(
            kernel,
            metrics=self.metrics,
            owner=str(dc_id),
            cursor_store=self.database.save_scheduler_cursor,
        )
        #: RMS-alarm-driven sensor quarantine (degraded-mode operation).
        self.quarantine = SensorQuarantine(
            kernel.clock, metrics=self.metrics, owner=str(dc_id)
        )
        #: Injected instrumentation faults by acquisition channel.
        self._sensor_faults: dict[int, SensorFault] = {}
        self.machines: dict[ObjectId, MonitoredMachine] = {}
        #: Block-reduction pipelines keyed by (n_channels, block length)
        #: (the scalar indicators for every vibration test flow through
        #: these, so ``hpc.pipeline.*`` counts the DC's real reduction
        #: workload).
        self._pipelines: dict[tuple[int, int], FeaturePipeline] = {}
        if sources is None:
            self.sources: list[KnowledgeSource] = [
                DliExpertSystem(),
                FuzzyDiagnostics(),
                SbfrKnowledgeSource(),
            ]
        else:
            self.sources = list(sources)
        self.reports_sent = 0
        self.reports_degraded = 0
        #: (knowledge source id, exception) pairs from isolated suites.
        self.source_errors: list[tuple[str, Exception]] = []
        dc = str(dc_id)
        self._m_reports = self.metrics.counter("dc.reports_produced", dc=dc)
        self._m_degraded = self.metrics.counter("dc.reports_degraded", dc=dc)
        self._m_source_errors = self.metrics.counter("dc.source_errors", dc=dc)
        self._m_vib_tests = self.metrics.counter("dc.vibration_tests", dc=dc)
        self._m_scans = self.metrics.counter("dc.process_scans", dc=dc)

    # -- configuration -------------------------------------------------------
    def add_source(self, source: KnowledgeSource) -> None:
        """Install an additional algorithm suite (e.g. a trained WNN)."""
        self.sources.append(source)

    def attach_machine(
        self,
        machine_id: ObjectId,
        name: str,
        simulator: ChillerSimulator,
        vibration_channel: int,
        rms_alarm: float | None = 1.0,
        rms_floor: float | None = 1e-3,
    ) -> MonitoredMachine:
        """Bind a simulated machine to an acquisition channel."""
        if machine_id in self.machines:
            raise AcquisitionError(f"machine {machine_id!r} already attached")
        machine = MonitoredMachine(
            machine_id=machine_id,
            name=name,
            kinematics=simulator.config.kinematics,
            simulator=simulator,
            vibration_channel=vibration_channel,
        )
        self.machines[machine_id] = machine
        # Route acquisition through the DC so injected sensor faults
        # (dropout / stuck-at) affect RMS scans and vibration tests alike.
        self.acquisition.bind(
            vibration_channel,
            lambda n, rng, m=machine: self._read_vibration(m, n),
        )
        if rms_alarm is not None:
            self.acquisition.detectors.set_threshold(vibration_channel, rms_alarm)
        if rms_floor is not None:
            self.acquisition.detectors.set_floor(vibration_channel, rms_floor)
        self.database.register_machine(
            machine_id, name, {"shaft_hz": simulator.config.kinematics.shaft_hz}
        )
        self.database.register_channel(
            vibration_channel, f"accel:{machine_id}", machine_id, "accelerometer",
            rms_alarm,
        )
        return machine

    def schedule_standard_tests(
        self, vibration_period: float = 600.0, process_period: float = 60.0
    ) -> None:
        """Install the standard periodic test schedule."""
        self.scheduler.add_periodic(
            "vibration-test", vibration_period, lambda t: self.run_vibration_tests(t)
        )
        self.scheduler.add_periodic(
            "process-scan", process_period, lambda t: self.run_process_scan(t)
        )
        # The Figure-5 "real-time and constant alarming" pass: every
        # RMS detector sees its channel regardless of bank selection.
        self.scheduler.add_periodic(
            "rms-scan", process_period, lambda t: self.rms_alarm_scan()
        )
        self.database.register_schedule("vibration-test", vibration_period, "vibration")
        self.database.register_schedule("process-scan", process_period, "process")
        self.database.register_schedule("rms-scan", process_period, "alarm")

    # -- sensor faults (instrumentation failures, not machinery faults) -------
    def inject_sensor_fault(self, channel: int, fault: SensorFault) -> None:
        """Install an instrumentation fault on an acquisition channel.

        Unlike :meth:`ChillerSimulator.inject_fault` (a machinery
        degradation the suites should *detect*), a sensor fault corrupts
        the measurement itself — the condition the RMS-alarm quarantine
        exists to contain."""
        self._sensor_faults[int(channel)] = fault

    def clear_sensor_fault(self, channel: int) -> None:
        """Remove any injected fault from a channel."""
        self._sensor_faults.pop(int(channel), None)

    def _read_vibration(self, machine: MonitoredMachine, n_samples: int) -> np.ndarray:
        """Sample one machine's accelerometer, through any active fault."""
        wave = machine.simulator.sample_vibration(n_samples)
        fault = self._sensor_faults.get(machine.vibration_channel)
        if fault is not None:
            now = self.kernel.now()
            if fault.active_at(now):
                wave = fault.apply(wave, now)
        return wave

    # -- test routines -----------------------------------------------------------
    def _advance_simulators(self, now: float) -> None:
        for m in self.machines.values():
            if m.simulator.time < now:
                m.simulator.step(now - m.simulator.time)

    def _pipeline_for(self, n_samples: int, n_channels: int = 1) -> FeaturePipeline:
        """Reduction pipeline for this block geometry."""
        key = (n_channels, n_samples)
        pipe = self._pipelines.get(key)
        if pipe is None:
            pipe = FeaturePipeline(
                n_channels,
                n_samples,
                self.acquisition.dsp.sample_rate,
                metrics=self.metrics,
            )
            self._pipelines[key] = pipe
        return pipe

    def _dispatch(
        self, ctxs: list[SourceContext], degraded: list[bool]
    ) -> list[FailurePredictionReport]:
        """Run every suite across a whole scan's contexts at once.

        Reports come out machine-major, source-minor.  Suites are
        isolated from each other: one misbehaving algorithm (§1.1
        anticipates adding third-party suites) must not silence the
        rest of the DC, and failures are recorded in
        :attr:`source_errors`.  Sources exposing ``analyze_batch`` get
        the full context list in one call (isolated as a unit — a batch
        failure silences only that suite for this scan), others run
        per context with per-context isolation.  A context flagged
        ``degraded`` (a quarantined sensor forced a reduced-evidence
        analysis) has every report flagged, so downstream fusion knows
        the DC is reporting with less than full instrumentation rather
        than going silent.
        """
        per_ctx: list[list[FailurePredictionReport]] = [[] for _ in ctxs]
        with self.tracer.span("dc.dispatch", dc=str(self.dc_id)):
            for source in self.sources:
                try:
                    source_id = source.knowledge_source_id
                except AttributeError:
                    source_id = repr(source)
                analyze_batch = getattr(source, "analyze_batch", None)
                with self.tracer.span(f"suite.{source_id}"):
                    if analyze_batch is not None:
                        try:
                            for pos, rs in enumerate(analyze_batch(ctxs)):
                                per_ctx[pos].extend(rs)
                        except Exception as exc:  # noqa: BLE001 - isolation by design
                            self.source_errors.append((source_id, exc))
                            self._m_source_errors.inc()
                        continue
                    for pos, ctx in enumerate(ctxs):
                        try:
                            per_ctx[pos].extend(source.analyze(ctx))
                        except Exception as exc:  # noqa: BLE001 - isolation by design
                            self.source_errors.append((source_id, exc))
                            self._m_source_errors.inc()
        out: list[FailurePredictionReport] = []
        for pos, reports in enumerate(per_ctx):
            if degraded[pos]:
                reports = [replace(r, degraded=True) for r in reports]
            for r in reports:
                self.database.store_report(r)
                self.sink(r)
                self.reports_sent += 1
                self._m_reports.inc()
                if r.degraded:
                    self.reports_degraded += 1
                    self._m_degraded.inc()
            out.extend(reports)
        return out

    def run_vibration_tests(self, now: float, n_samples: int = 32768) -> int:
        """Acquire a vibration block per machine and run the vibration
        suites; returns reports produced."""
        self._advance_simulators(now)
        self._m_vib_tests.inc()
        # One gathered acquisition pass, one stacked reduction, one
        # shared spectral cache, one suite dispatch over all machines.
        ctxs: list[SourceContext] = []
        degraded: list[bool] = []
        live: list[tuple[int, MonitoredMachine, np.ndarray]] = []
        sample_rate = self.acquisition.dsp.sample_rate
        for m in self.machines.values():
            # Degraded mode: a quarantined accelerometer's waveform is
            # untrusted, so the machine gets a process-only context and
            # flagged reports instead of dropping off the PDME's radar.
            # Per machine the draw order is vibration, then process.
            quarantined = self.quarantine.is_quarantined(m.vibration_channel)
            wave = None if quarantined else self._read_vibration(m, n_samples)
            process = m.simulator.sample_process().values
            if wave is not None:
                live.append((len(ctxs), m, wave))
            ctxs.append(
                SourceContext(
                    sensed_object_id=m.machine_id,
                    timestamp=now,
                    waveform=wave,
                    sample_rate=0.0 if wave is None else sample_rate,
                    process=process,
                    kinematics=m.kinematics,
                    history=m.process_history[-16:],
                    dc_id=self.dc_id,
                )
            )
            degraded.append(quarantined)
        if live:
            waves = np.stack([wave for _, _, wave in live])
            summary = self._pipeline_for(n_samples, len(live)).process(waves)
            measurements = []
            for row, (_, m, _) in enumerate(live):
                measurements.append(
                    (now, "rms", float(summary.rms[row]), m.vibration_channel, m.machine_id)
                )
                measurements.append(
                    (now, "peak", float(summary.peak[row]), m.vibration_channel, m.machine_id)
                )
            self.database.store_measurements(measurements)
            cache = BatchSpectralCache(waveforms=waves, sample_rate=sample_rate)
            for row, (pos, _, _) in enumerate(live):
                ctxs[pos] = replace(ctxs[pos], spectra=cache.view(row))
        return len(self._dispatch(ctxs, degraded))

    def run_process_scan(self, now: float) -> int:
        """Sample process variables per machine and run the
        non-vibration suites; returns reports produced."""
        self._advance_simulators(now)
        self._m_scans.inc()
        ctxs: list[SourceContext] = []
        for m in self.machines.values():
            sample = m.simulator.sample_process()
            m.process_history.append(sample.values)
            if len(m.process_history) > 256:
                del m.process_history[:-256]
            self.database.store_measurements(
                [
                    (now, key, value, None, m.machine_id)
                    for key, value in sample.values.items()
                ]
            )
            ctxs.append(
                SourceContext(
                    sensed_object_id=m.machine_id,
                    timestamp=now,
                    process=sample.values,
                    history=m.process_history[-16:],
                    kinematics=m.kinematics,
                    dc_id=self.dc_id,
                )
            )
        return len(self._dispatch(ctxs, [False] * len(ctxs)))

    # -- remote control (§5.8, §6.3) -----------------------------------------
    def serve_on(self, endpoint) -> None:
        """Expose DC control methods on an RPC endpoint.

        "In this way, the PDME or any other client can command the
        scheduler to conduct another test and analysis routine" (§5.8),
        and "new finite-state machines may be downloaded into the smart
        sensor" for a closer look (§6.3).
        """
        endpoint.register("command_test", self._rpc_command_test)
        endpoint.register("download_machine", self._rpc_download_machine)
        endpoint.register("list_channels", self._rpc_list_channels)
        endpoint.register("get_measurements", self._rpc_get_measurements)

    def _rpc_command_test(self, payload: dict) -> dict:
        name = str(payload.get("name", ""))
        self.scheduler.command(name)
        return {"ran": name, "at": self.kernel.now()}

    def _sbfr_source(self) -> SbfrKnowledgeSource:
        for source in self.sources:
            if isinstance(source, SbfrKnowledgeSource):
                return source
        raise AcquisitionError("this DC runs no SBFR source to download into")

    def _rpc_download_machine(self, payload: dict) -> dict:
        import base64

        from repro.analysis.sbfr_verifier import verify_bytes
        from repro.common.errors import SbfrError
        from repro.sbfr.encode import decode_machine

        data = base64.b64decode(str(payload["machine_b64"]))
        name = str(payload.get("name", "downloaded"))
        source = self._sbfr_source()
        # Static verification is the download gate (§6.3): the wire
        # bytes are vetted in the slot they would occupy — structural
        # framing, reference ranges, reachability, timers, budgets —
        # before anything is decoded into the running source.
        slot = len(source.deployed_specs())
        report = verify_bytes(
            data,
            name=name,
            self_index=slot,
            n_channels=len(source.channel_names()),
            n_machines=slot + 1,
        )
        if report.errors:
            raise SbfrError(
                "download refused by static verification: "
                + "; ".join(d.render() for d in report.errors)
            )
        spec = decode_machine(data, name=name)
        idx = source.install_machine(
            spec,
            condition_id=str(payload["condition_id"]),
            severity=float(payload.get("severity", 0.6)),
        )
        return {"installed": idx, "bytes": len(data)}

    def _rpc_list_channels(self, payload: dict) -> dict:
        return {"channels": self._sbfr_source().channel_names()}

    def _rpc_get_measurements(self, payload: dict) -> dict:
        """Raw-data access for ICAS-class clients (§5.8: the DC database
        'can be accessed by client PC's on the network')."""
        machine_id = str(payload["machine_id"])
        kind = str(payload["kind"])
        limit = int(payload.get("limit", 100))
        history = self.database.measurement_history(machine_id, kind, limit)
        return {"machine_id": machine_id, "kind": kind, "history": history}

    def rms_alarm_scan(self, n_samples: int = 256) -> list[int]:
        """Run the constant-alarming RMS pass; returns alarmed channels.

        Every scan also feeds the sensor quarantine: a channel alarming
        on enough *consecutive* scans is treated as failed
        instrumentation and pulled out of the vibration-suite inputs
        until its cooldown expires."""
        alarms = self.acquisition.rms_scan(n_samples, self.rng)
        alarmed = [int(c) for c in np.flatnonzero(alarms)]
        self.quarantine.observe(alarmed)
        return alarmed

    # -- crash/restart recovery -----------------------------------------------
    def restore_cursors(self) -> int:
        """Reapply persisted scheduler cursors after a restart; returns
        how many tasks were restored."""
        return self.scheduler.restore_cursors(self.database.scheduler_cursors())
