import json
import sqlite3

import pytest

from repro.common.errors import MprosError, SchedulingError
from repro.dc import DcDatabase, EventScheduler
from repro.dc.scheduler import ERRORS_KEPT
from repro.netsim import EventKernel
from repro.obs.registry import MetricsRegistry
from repro.protocol import FailurePredictionReport, PrognosticVector
from repro.protocol.wire import encode_report


def make_report(machine="m1", t=1.0):
    return FailurePredictionReport(
        knowledge_source_id="ks:dli",
        sensed_object_id=machine,
        machine_condition_id="mc:motor-imbalance",
        severity=0.5,
        belief=0.7,
        timestamp=t,
        prognostic=PrognosticVector.from_pairs([(100.0, 0.5)]),
    )


# -- database --------------------------------------------------------------------

def test_instrumentation_roundtrip():
    db = DcDatabase()
    db.register_channel(3, "accel:1", "m1", "accelerometer", 1.5)
    db.register_channel(4, "rtd:1", "m1", "rtd")
    assert set(db.channels_for("m1")) == {
        (3, "accel:1", "accelerometer"),
        (4, "rtd:1", "rtd"),
    }


def test_machinery_config_roundtrip():
    db = DcDatabase()
    db.register_machine("m1", "Motor 1", {"shaft_hz": 59.3})
    assert db.machine_config("m1") == {"shaft_hz": 59.3}
    assert db.machines() == ["m1"]
    with pytest.raises(MprosError):
        db.machine_config("ghost")


def test_schedules_roundtrip():
    db = DcDatabase()
    db.register_schedule("vib", 600.0, "vibration")
    assert db.schedules() == [("vib", 600.0, "vibration")]
    with pytest.raises(MprosError):
        db.register_schedule("bad", 0.0, "x")


def test_measurements_history_ordering():
    db = DcDatabase()
    for t in range(5):
        db.store_measurement(float(t), "rms", float(t) * 2, channel=1, machine_id="m1")
    hist = db.measurement_history("m1", "rms", limit=3)
    assert hist == [(2.0, 4.0), (3.0, 6.0), (4.0, 8.0)]
    assert db.measurement_count() == 5


def test_bulk_measurements():
    db = DcDatabase()
    db.store_measurements([(1.0, "rms", 0.5, 1, "m1"), (2.0, "peak", 1.5, 1, "m1")])
    assert db.measurement_count() == 2


def test_reports_roundtrip():
    db = DcDatabase()
    r = make_report()
    db.store_reports([r, make_report(machine="m2")])
    assert db.report_count() == 2
    got = db.reports_for("m1")
    assert got == [r]


# -- corrupt rows: the on-disk JSON is a trust boundary ------------------------------

def _db_with_rows(tmp_path, sql, rows):
    """A file-backed database whose rows were written by hand, past the
    typed API (a damaged or edited file)."""
    path = tmp_path / "dc.sqlite"
    DcDatabase(path).close()
    conn = sqlite3.connect(path)
    with conn:
        conn.executemany(sql, rows)
    conn.close()
    return DcDatabase(path)


@pytest.mark.parametrize(
    "config",
    ['{"shaft_hz": NaN}', '{"shaft_hz": Infinity}', '{"shaft_hz": -Infinity}',
     '{"shaft_hz": 1e400}', '{"shaft_hz": -1e400}',
     '{"shaft_hz": 59.3', "[59.3]", "\"59.3\""],
)
def test_machine_config_rejects_corrupt_row(tmp_path, config):
    db = _db_with_rows(
        tmp_path, "INSERT INTO machinery VALUES (?, ?, ?)", [("m1", "Motor 1", config)]
    )
    with pytest.raises(MprosError, match="machinery"):
        db.machine_config("m1")
    db.close()


@pytest.mark.parametrize(
    "payload",
    [
        json.dumps(encode_report(make_report())).replace('"severity": 0.5', '"severity": NaN'),
        json.dumps(encode_report(make_report())).replace('"timestamp": 1.0', '"timestamp": Infinity'),
        json.dumps(encode_report(make_report()))[:-1],
        json.dumps({"v": 1}),
        json.dumps(encode_report(make_report())).replace('"severity": 0.5', '"severity": 2.5'),
        "null",
    ],
)
def test_reports_for_rejects_corrupt_row(tmp_path, payload):
    good = json.dumps(encode_report(make_report()))
    db = _db_with_rows(
        tmp_path,
        "INSERT INTO condition_reports (time_s, machine_id, payload) VALUES (?, ?, ?)",
        [(1.0, "m1", good), (2.0, "m1", payload)],
    )
    with pytest.raises(MprosError, match="condition_reports"):
        db.reports_for("m1")
    db.close()


@pytest.mark.parametrize(
    "payload",
    ['{"report_id": "dc:0#1", "severity": NaN}', '{"belief": -Infinity}',
     '{"belief": 1e400}', '{"report_id": ', "[1, 2]"],
)
def test_uplink_rows_rejects_corrupt_row(tmp_path, payload):
    db = _db_with_rows(
        tmp_path,
        "INSERT INTO uplink_backlog (report_id, payload) VALUES (?, ?)",
        [("dc:0#0", '{"report_id": "dc:0#0"}'), ("dc:0#1", payload)],
    )
    with pytest.raises(MprosError, match="uplink_backlog"):
        db.uplink_rows()
    db.close()


# -- scheduler --------------------------------------------------------------------

def test_periodic_task_runs_on_schedule():
    kernel = EventKernel()
    sched = EventScheduler(kernel)
    times = []
    sched.add_periodic("t", 10.0, times.append)
    kernel.run_until(35.0)
    assert times == [10.0, 20.0, 30.0]
    assert sched.task("t").runs == 3
    assert sched.task("t").last_run == 30.0


def test_duplicate_task_rejected():
    sched = EventScheduler(EventKernel())
    sched.add_periodic("t", 1.0, lambda t: None)
    with pytest.raises(SchedulingError):
        sched.add_periodic("t", 2.0, lambda t: None)


def test_bad_period_rejected():
    with pytest.raises(SchedulingError):
        EventScheduler(EventKernel()).add_periodic("t", 0.0, lambda t: None)


def test_command_runs_out_of_schedule():
    kernel = EventKernel()
    sched = EventScheduler(kernel)
    times = []
    sched.add_periodic("t", 100.0, times.append)
    sched.command("t")
    assert times == [0.0]
    with pytest.raises(SchedulingError):
        sched.command("ghost")


def test_disable_pauses_without_unscheduling():
    kernel = EventKernel()
    sched = EventScheduler(kernel)
    times = []
    sched.add_periodic("t", 10.0, times.append)
    sched.enable("t", False)
    kernel.run_until(25.0)
    assert times == []
    sched.enable("t", True)
    kernel.run_until(45.0)
    assert times == [30.0, 40.0]


def test_remove_stops_task():
    kernel = EventKernel()
    sched = EventScheduler(kernel)
    times = []
    sched.add_periodic("t", 10.0, times.append)
    sched.remove("t")
    kernel.run_until(50.0)
    assert times == []


def test_failing_task_is_isolated():
    kernel = EventKernel()
    sched = EventScheduler(kernel)

    def bad(t):
        raise RuntimeError("sensor exploded")

    good_times = []
    sched.add_periodic("bad", 10.0, bad)
    sched.add_periodic("good", 10.0, good_times.append)
    kernel.run_until(25.0)
    assert good_times == [10.0, 20.0]
    assert len(sched.errors) == 2
    assert sched.task("bad").runs == 0


def test_error_list_keeps_the_newest_and_the_counter_counts_all():
    kernel = EventKernel()
    registry = MetricsRegistry()
    sched = EventScheduler(kernel, metrics=registry, owner="dc:0")
    failures = 2 * ERRORS_KEPT

    def bad(t):
        raise RuntimeError(f"failure at {t:g}")

    sched.add_periodic("bad", 1.0, bad)
    kernel.run_until(float(failures))
    assert len(sched.errors) == ERRORS_KEPT
    assert [str(exc) for _, exc in sched.errors] == [
        f"failure at {t:g}" for t in range(ERRORS_KEPT + 1, failures + 1)
    ]
    counters = registry.snapshot()["counters"]
    assert counters["dc.scheduler.errors{owner=dc:0,task=bad}"] == failures
