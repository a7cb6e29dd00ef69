import numpy as np
import pytest

from repro.common.errors import AcquisitionError
from repro.dc import DataConcentrator
from repro.netsim import EventKernel
from repro.plant import ChillerSimulator, FaultKind
from repro.plant.faults import seeded


def make_dc(seed=0):
    kernel = EventKernel()
    sink: list = []
    dc = DataConcentrator(
        dc_id="dc:0", kernel=kernel, sink=sink.append,
        rng=np.random.default_rng(seed),
    )
    return kernel, dc, sink


def attach_chiller(dc, seed=0, machine_id="obj:motor1", channel=0, faults=()):
    sim = ChillerSimulator(rng=np.random.default_rng(seed))
    for f in faults:
        sim.inject(f)
    dc.attach_machine(machine_id, "A/C Compressor Motor 1", sim, channel)
    return sim


def test_attach_machine_registers_config():
    _, dc, _ = make_dc()
    attach_chiller(dc)
    assert dc.database.machines() == ["obj:motor1"]
    assert dc.database.channels_for("obj:motor1")[0][2] == "accelerometer"


def test_attach_twice_rejected():
    _, dc, _ = make_dc()
    attach_chiller(dc)
    with pytest.raises(AcquisitionError):
        attach_chiller(dc, machine_id="obj:motor1", channel=1)


def test_healthy_machine_vibration_test_quiet():
    _, dc, sink = make_dc()
    attach_chiller(dc)
    produced = dc.run_vibration_tests(now=600.0)
    assert produced == 0
    assert sink == []
    # Measurements were still recorded.
    assert dc.database.measurement_count() >= 2


def test_faulty_machine_produces_reports():
    _, dc, sink = make_dc()
    attach_chiller(dc, faults=[seeded(FaultKind.MOTOR_IMBALANCE, 0.0, 0.9)])
    produced = dc.run_vibration_tests(now=600.0)
    assert produced > 0
    assert any(r.machine_condition_id == "mc:motor-imbalance" for r in sink)
    r = sink[0]
    assert r.dc_id == "dc:0"
    assert dc.database.report_count() == len(sink)
    assert dc.reports_sent == len(sink)


def test_process_scan_detects_process_fault():
    _, dc, sink = make_dc()
    attach_chiller(dc, faults=[seeded(FaultKind.REFRIGERANT_LEAK, 0.0, 0.9)])
    for step in range(1, 25):
        dc.run_process_scan(now=step * 60.0)
    assert any(r.machine_condition_id == "mc:refrigerant-leak" for r in sink)
    # Process history accumulated and measurements recorded.
    m = dc.machines["obj:motor1"]
    assert len(m.process_history) >= 20


def test_scheduler_drives_tests():
    kernel, dc, sink = make_dc()
    attach_chiller(dc, faults=[seeded(FaultKind.MOTOR_IMBALANCE, 0.0, 0.9)])
    dc.schedule_standard_tests(vibration_period=600.0, process_period=60.0)
    kernel.run_until(1300.0)
    assert dc.scheduler.task("vibration-test").runs == 2
    assert dc.scheduler.task("process-scan").runs >= 20
    assert len(sink) > 0
    assert dc.database.schedules()


def test_rms_alarm_scan_flags_severe_vibration():
    _, dc, _ = make_dc()
    sim = attach_chiller(dc, faults=[seeded(FaultKind.BEARING_WEAR, 0.0, 1.0)])
    sim.step(10.0)
    # Healthy RMS is ~0.1; bearing bursts push it past the 1.0 default?
    # Use a tight threshold instead to exercise the path.
    dc.acquisition.detectors.set_threshold(0, 0.05)
    alarmed = dc.rms_alarm_scan(n_samples=2048)
    assert 0 in alarmed


def test_multiple_machines_on_one_dc():
    _, dc, sink = make_dc()
    attach_chiller(dc, machine_id="obj:m1", channel=0,
                   faults=[seeded(FaultKind.MOTOR_IMBALANCE, 0.0, 0.9)])
    attach_chiller(dc, seed=1, machine_id="obj:m2", channel=1)
    dc.run_vibration_tests(now=600.0)
    objs = {r.sensed_object_id for r in sink}
    assert "obj:m1" in objs and "obj:m2" not in objs


def test_broken_source_is_isolated():
    """A third-party suite that raises must not silence the others."""

    class BrokenSource:
        knowledge_source_id = "ks:broken"

        def analyze(self, ctx):
            raise RuntimeError("third-party bug")

    kernel, dc, sink = make_dc()
    attach_chiller(dc, faults=[seeded(FaultKind.MOTOR_IMBALANCE, 0.0, 0.9)])
    dc.sources.insert(0, BrokenSource())  # runs first, fails every pass
    produced = dc.run_vibration_tests(now=600.0)
    assert produced > 0                       # DLI still reported
    assert any(r.machine_condition_id == "mc:motor-imbalance" for r in sink)
    assert dc.source_errors
    assert dc.source_errors[0][0] == "ks:broken"


def test_dispatch_names_a_source_without_repr_unless_it_has_no_id():
    """A suite's id names it in errors and spans; its repr is built only
    for a suite that has no id."""
    reprs: list[str] = []

    class Counted:
        def __repr__(self):
            reprs.append(type(self).__name__)
            return f"<{type(self).__name__}>"

        def analyze(self, ctx):
            raise RuntimeError("third-party bug")

    class Named(Counted):
        knowledge_source_id = "ks:named"

    _, dc, _ = make_dc()
    attach_chiller(dc)
    dc.sources.insert(0, Named())
    dc.run_vibration_tests(now=600.0)
    assert reprs == []
    assert dc.source_errors[0][0] == "ks:named"
    dc.sources[0] = Counted()
    dc.run_vibration_tests(now=1200.0)
    assert reprs == ["Counted"]
    assert dc.source_errors[-1][0] == "<Counted>"
