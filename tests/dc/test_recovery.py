"""Crash/restart recovery: durable uplink backlog, scheduler cursors,
and exactly-once delivery at the OOSM."""

import numpy as np
import pytest

from repro.common.errors import NetworkError
from repro.dc.database import DcDatabase
from repro.dc.scheduler import EventScheduler
from repro.dc.uplink import ReportUplink
from repro.netsim import EventKernel, Network, RpcEndpoint
from repro.oosm import build_chilled_water_ship
from repro.pdme import PdmeExecutive
from repro.protocol import FailurePredictionReport


def make_world(seed=0):
    kernel = EventKernel()
    net = Network(kernel, np.random.default_rng(seed))
    dc_ep = RpcEndpoint("dc:0", net, kernel, timeout=0.2, retries=1)
    pdme_ep = RpcEndpoint("pdme", net, kernel)
    model, ship, units = build_chilled_water_ship(n_chillers=1)
    pdme = PdmeExecutive(model)
    pdme.serve_on(pdme_ep)
    store = DcDatabase()
    uplink = ReportUplink(dc_ep, "pdme", store=store)
    return kernel, net, pdme, uplink, store, units[0]


def report(obj, i=0):
    return FailurePredictionReport(
        knowledge_source_id="ks:dli",
        sensed_object_id=obj,
        machine_condition_id="mc:motor-imbalance",
        severity=0.5,
        belief=0.4,
        timestamp=float(i),
    )


# -- durable backlog ---------------------------------------------------------

def test_acked_reports_leave_the_store():
    kernel, net, pdme, uplink, store, unit = make_world()
    for i in range(4):
        uplink.submit(report(unit.motor, i))
    assert store.uplink_count() == 4        # persisted before any ack
    kernel.run()
    assert store.uplink_count() == 0        # acks cleared the store
    assert pdme.report_count() == 4


def test_crash_wipes_volatile_state_but_not_the_store():
    kernel, net, pdme, uplink, store, unit = make_world()
    net.set_down("dc:0", "pdme", True)
    for i in range(3):
        uplink.submit(report(unit.motor, i))
    kernel.run()
    assert uplink.backlog == 3
    uplink.crash()
    assert uplink.backlog == 0
    assert store.uplink_count() == 3


def test_recover_reloads_backlog_with_original_ids():
    kernel, net, pdme, uplink, store, unit = make_world()
    net.set_down("dc:0", "pdme", True)
    for i in range(3):
        uplink.submit(report(unit.motor, i))
    kernel.run()
    ids_before = [rid for rid, _ in store.uplink_rows()]
    uplink.crash()
    assert uplink.recover() == 3
    assert uplink.backlog == 3
    assert [uplink.report_id(k) for k in uplink._queue] == ids_before
    net.set_down("dc:0", "pdme", False)
    uplink.flush(force=True)
    kernel.run()
    assert uplink.backlog == 0
    assert pdme.report_count() == 3


def test_lost_ack_replay_is_exactly_once_at_the_oosm():
    """The strictest case: delivered, posted in the OOSM, but the DC
    died before the ack landed.  The replay must be absorbed."""
    kernel, net, pdme, uplink, store, unit = make_world()
    uplink.submit(report(unit.motor))
    # Run just far enough for the request to arrive at the PDME
    # (one-way 2 ms) but not the ack (4 ms round trip).
    kernel.run_until(0.003)
    assert pdme.report_count() == 1
    assert store.uplink_count() == 1        # ack never made it back
    uplink.endpoint.reset()                  # crash: forget in-flight calls
    uplink.crash()
    assert uplink.recover() == 1
    uplink.flush(force=True)
    kernel.run()
    assert uplink.backlog == 0
    assert store.uplink_count() == 0
    assert pdme.report_count() == 1          # not fused twice
    assert pdme.duplicates_dropped == 1


def test_recover_requires_store_and_empty_queue():
    kernel = EventKernel()
    net = Network(kernel, np.random.default_rng(0))
    ep = RpcEndpoint("dc:0", net, kernel)
    bare = ReportUplink(ep, "pdme")
    with pytest.raises(NetworkError):
        bare.recover()
    _, net2, _, uplink, _, unit = make_world()
    net2.set_down("dc:0", "pdme", True)
    uplink.submit(report(unit.motor))
    with pytest.raises(NetworkError):
        uplink.recover()


def test_recover_rejects_foreign_report_ids():
    _, _, _, uplink, store, _ = make_world()
    store.uplink_put("dc:other#0", {"bogus": True})
    with pytest.raises(NetworkError):
        uplink.recover()


def test_bind_store_guards():
    kernel = EventKernel()
    net = Network(kernel, np.random.default_rng(0))
    ep = RpcEndpoint("dc:9", net, kernel)
    uplink = ReportUplink(ep, "pdme")
    store = DcDatabase()
    uplink.bind_store(store)
    with pytest.raises(NetworkError):
        uplink.bind_store(DcDatabase())     # already bound


# -- shedding + crash/recover ------------------------------------------------

def make_small_world(capacity=4, seed=0):
    """A world whose uplink sheds early: durable store + tiny queue."""
    kernel = EventKernel()
    net = Network(kernel, np.random.default_rng(seed))
    dc_ep = RpcEndpoint("dc:0", net, kernel, timeout=0.2, retries=1)
    pdme_ep = RpcEndpoint("pdme", net, kernel)
    model, ship, units = build_chilled_water_ship(n_chillers=1)
    pdme = PdmeExecutive(model)
    pdme.serve_on(pdme_ep)
    store = DcDatabase()
    uplink = ReportUplink(dc_ep, "pdme", capacity=capacity, store=store)
    return kernel, net, pdme, uplink, store, units[0]


def test_recover_after_shedding_keeps_only_the_survivors():
    """A prolonged outage that overflowed the queue: shed reports are
    gone from the durable store too, so a crash/recover cycle reloads
    exactly the post-shed backlog — the conservation accounting
    (queued = delivered + backlog + shed + rejected) stays intact and
    nothing shed rises from the dead."""
    kernel, net, pdme, uplink, store, unit = make_small_world(capacity=4)
    net.set_down("dc:0", "pdme", True)
    for i in range(10):
        uplink.submit(report(unit.motor, i))
        kernel.run()                        # settle each failed attempt
    assert uplink.backlog == 4
    assert uplink.stats.shed == 6
    assert store.uplink_count() == 4        # shedding purged the store too
    shed_age_before = uplink.stats.oldest_shed_age
    assert shed_age_before > 0.0

    uplink.crash()
    assert uplink.recover() == 4            # only the survivors come back
    assert uplink.backlog == 4
    # Shed-age accounting rides the stats object, not the queue, so the
    # post-mortem signal survives the crash/recover cycle.
    assert uplink.stats.oldest_shed_age == shed_age_before
    assert uplink.stats.shed == 6

    net.set_down("dc:0", "pdme", False)
    uplink.flush(force=True)
    kernel.run()
    assert uplink.backlog == 0
    assert store.uplink_count() == 0
    # Exactly the four newest reports reach the OOSM — none of the six
    # shed ones resurrected.
    assert pdme.report_count() == 4
    times = sorted(r.timestamp for r in pdme.router.workers[0].store.all_reports())
    assert times == [6.0, 7.0, 8.0, 9.0]
    # queued counts original submissions plus the recovery reload.
    assert uplink.stats.queued == 10 + 4
    assert uplink.stats.delivered == 4


def test_recover_does_not_resurrect_acked_reports():
    """Reports acknowledged before the outage are out of the store;
    recover() must reload only the unacked tail, and its replay stays
    exactly-once at the OOSM."""
    kernel, net, pdme, uplink, store, unit = make_small_world(capacity=8)
    for i in range(3):
        uplink.submit(report(unit.motor, i))
    kernel.run()
    assert pdme.report_count() == 3
    assert store.uplink_count() == 0        # acks cleared the store
    net.set_down("dc:0", "pdme", True)
    for i in range(3, 5):
        uplink.submit(report(unit.motor, i))
    kernel.run()
    uplink.crash()
    assert uplink.recover() == 2            # the unacked tail only
    net.set_down("dc:0", "pdme", False)
    uplink.flush(force=True)
    kernel.run()
    assert pdme.report_count() == 5
    assert pdme.duplicates_dropped == 0


def test_shed_stale_purges_the_durable_store():
    """The catch-up staleness cutoff must discard durably: a report
    shed as stale, then a crash/recover, must not bring it back."""
    kernel, net, pdme, uplink, store, unit = make_small_world(capacity=16)
    net.set_down("dc:0", "pdme", True)
    for i in range(4):
        uplink.submit(report(unit.motor, i))
    kernel.run()
    kernel.run_until(kernel.now() + 2000.0)
    uplink.submit(report(unit.motor, int(kernel.now()) - 1))
    kernel.run()
    assert uplink.shed_stale(1000.0) == 4
    assert store.uplink_count() == 1
    uplink.crash()
    assert uplink.recover() == 1
    net.set_down("dc:0", "pdme", False)
    uplink.flush(force=True)
    kernel.run()
    assert pdme.report_count() == 1


# -- scheduler cursors -------------------------------------------------------

def test_cursors_persist_and_restore():
    kernel = EventKernel()
    db = DcDatabase()
    sched = EventScheduler(kernel, cursor_store=db.save_scheduler_cursor)
    runs = []
    sched.add_periodic("tick", 10.0, runs.append)
    kernel.run_until(35.0)
    assert db.scheduler_cursors() == {"tick": (3, 30.0)}

    # A "restarted" scheduler resumes where the old one stood.
    fresh = EventScheduler(kernel, cursor_store=db.save_scheduler_cursor)
    task = fresh.add_periodic("tick", 10.0, runs.append)
    assert fresh.restore_cursors(db.scheduler_cursors()) == 1
    assert task.runs == 3
    assert task.last_run == 30.0


def test_restore_ignores_unknown_tasks():
    kernel = EventKernel()
    sched = EventScheduler(kernel)
    sched.add_periodic("known", 10.0, lambda t: None)
    applied = sched.restore_cursors({"gone": (5, 50.0), "known": (2, 20.0)})
    assert applied == 1
    assert sched.task("known").runs == 2


def test_suspended_scheduler_skips_runs_but_keeps_cadence():
    kernel = EventKernel()
    sched = EventScheduler(kernel)
    runs = []
    sched.add_periodic("tick", 10.0, runs.append)
    kernel.run_until(20.0)
    assert runs == [10.0, 20.0]
    sched.suspend()
    assert sched.suspended
    kernel.run_until(50.0)
    assert runs == [10.0, 20.0]             # frozen
    sched.resume()
    kernel.run_until(70.0)
    assert runs == [10.0, 20.0, 60.0, 70.0]  # cadence preserved, no burst
