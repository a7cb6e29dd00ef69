"""Fault-injection harness for the store-and-forward uplink (§4.9).

"Simulating the range of problems that may arise will let us improve
robustness to the point of long-term unattended operation."  These
tests script a hostile network — loss, corruption, jitter, and hard
outage windows — drive ~1k reports through it, and assert the
invariants unattended operation depends on:

* **conservation**: every submitted report is accounted for exactly
  once (delivered + rejected + shed + still-queued == queued);
* **oldest-first shedding**: under prolonged outage the bounded queue
  sheds stale reports, never fresh ones;
* **paced retries**: the flush path applies capped exponential backoff
  instead of hammering a dead link every tick.

Everything runs on the simulated clock under fixed seeds, so the whole
campaign is deterministic.
"""

import numpy as np
import pytest

from repro.common.clock import SimulatedClock
from repro.common.errors import NetworkError
from repro.dc.uplink import ReportUplink
from repro.netsim import EventKernel, LinkConfig, Network, RpcEndpoint
from repro.obs import MetricsRegistry
from repro.oosm import build_chilled_water_ship
from repro.pdme import PdmeExecutive
from repro.protocol import FailurePredictionReport


def make_world(link_config=None, seed=0, capacity=512, metrics=None, **uplink_kw):
    metrics = metrics if metrics is not None else MetricsRegistry()
    kernel = EventKernel(metrics=metrics)
    net = Network(kernel, np.random.default_rng(seed), metrics=metrics)
    if link_config is not None:
        net.connect("dc:0", "pdme", link_config)
    dc_ep = RpcEndpoint("dc:0", net, kernel, timeout=0.2, retries=1, metrics=metrics)
    pdme_ep = RpcEndpoint("pdme", net, kernel, metrics=metrics)
    model, ship, units = build_chilled_water_ship(n_chillers=1)
    pdme = PdmeExecutive(model, metrics=metrics)
    pdme.serve_on(pdme_ep)
    uplink = ReportUplink(
        dc_ep, "pdme", capacity=capacity, metrics=metrics, **uplink_kw
    )
    return kernel, net, pdme, uplink, units[0], metrics


def report(obj, i=0):
    return FailurePredictionReport(
        knowledge_source_id="ks:dli",
        sensed_object_id=obj,
        machine_condition_id="mc:motor-imbalance",
        severity=0.5,
        belief=0.4,
        timestamp=float(i),
    )


def conserved(uplink):
    s = uplink.stats
    return s.delivered + s.rejected + s.shed + uplink.backlog == s.queued


# ---------------------------------------------------------------------------
# The 1k-report campaign.
# ---------------------------------------------------------------------------

N_REPORTS = 1000
#: (start, end) simulated seconds with the dc<->pdme link hard-down.
OUTAGES = [(20.0, 45.0), (60.0, 62.0), (80.0, 95.0)]


def run_campaign(seed):
    """Submit 1k reports over a lossy link with scripted outages."""
    kernel, net, pdme, uplink, unit, metrics = make_world(
        LinkConfig(latency=0.005, jitter=0.004, drop_rate=0.15, corrupt_rate=0.05),
        seed=seed,
        capacity=64,
        retry_base=0.5,
        retry_cap=8.0,
    )
    for start, end in OUTAGES:
        kernel.schedule_at(start, lambda: net.set_down("dc:0", "pdme", True))
        kernel.schedule_at(end, lambda: net.set_down("dc:0", "pdme", False))
    # ~10 reports/s for 100 s; a mix of good and malformed-object
    # reports so the PDME exercises its refusal path too.
    for i in range(N_REPORTS):
        obj = unit.motor if i % 97 else "obj:ghost"
        kernel.schedule_at(0.1 * i, lambda r=report(obj, i): uplink.submit(r))
    # Periodic recovery flush, §4.9 style.
    for t in range(5, 200, 5):
        kernel.schedule_at(float(t), lambda: uplink.flush())
    kernel.run_until(200.0)
    kernel.run()
    return kernel, pdme, uplink, metrics


def test_campaign_conserves_every_report():
    kernel, pdme, uplink, metrics = run_campaign(seed=11)
    s = uplink.stats
    assert s.queued == N_REPORTS
    assert conserved(uplink), vars(s)
    # The scenario actually exercised every fault path.
    assert s.delivered > 0
    assert s.rejected > 0
    assert s.shed > 0
    assert s.retries > 0
    assert s.deferred > 0
    # After recovery + flushes the backlog fully drains.
    assert uplink.backlog == 0
    # At-least-once: a report can fuse at the PDME yet miss its ack and
    # later be shed, so the fused count is bounded by delivered + shed,
    # and retransmissions never double-fuse.
    assert pdme.report_count() <= s.delivered + s.shed
    assert pdme.duplicates_dropped > 0
    # Metrics agree with the legacy stats view.
    counters = metrics.snapshot()["counters"]
    assert counters["dc.uplink.delivered{dc=dc:0}"] == s.delivered
    assert counters["dc.uplink.shed{dc=dc:0}"] == s.shed
    assert counters["netsim.link.frames_corrupted"] > 0
    assert counters["netsim.rpc.corrupt_frames{endpoint=pdme}"] > 0


def test_campaign_is_deterministic_under_seed():
    def fingerprint(seed):
        kernel, pdme, uplink, metrics = run_campaign(seed)
        import json

        return json.dumps(metrics.snapshot(), sort_keys=True)

    assert fingerprint(11) == fingerprint(11)
    assert fingerprint(11) != fingerprint(12)


def test_conservation_holds_mid_campaign():
    """The invariant holds at every checkpoint, not just at the end."""
    kernel, net, pdme, uplink, unit, _ = make_world(
        LinkConfig(latency=0.005, drop_rate=0.3), seed=5, capacity=32,
        retry_base=0.5, retry_cap=4.0,
    )
    kernel.schedule_at(10.0, lambda: net.set_down("dc:0", "pdme", True))
    kernel.schedule_at(25.0, lambda: net.set_down("dc:0", "pdme", False))
    for i in range(300):
        kernel.schedule_at(0.1 * i, lambda r=report(unit.motor, i): uplink.submit(r))
    for t in np.arange(1.0, 40.0, 1.0):
        kernel.run_until(float(t))
        uplink.flush()
        # In-flight reports are still queued, so conservation holds
        # even with calls outstanding.
        assert conserved(uplink), f"broken at t={t}: {vars(uplink.stats)}"
    kernel.run()
    assert conserved(uplink)


def test_outage_sheds_oldest_first():
    """Under a pure outage the survivors are exactly the newest."""
    kernel, net, pdme, uplink, unit, _ = make_world(
        LinkConfig(latency=0.01), capacity=8
    )
    net.set_down("dc:0", "pdme", True)
    for i in range(100):
        uplink.submit(report(unit.motor, i))
        kernel.run()  # resolve the failed attempt before the next submit
    assert uplink.stats.shed == 92
    assert uplink.backlog == 8
    net.set_down("dc:0", "pdme", False)
    kernel.run_until(kernel.now() + uplink.retry_cap)
    uplink.flush()
    kernel.run()
    assert uplink.backlog == 0
    delivered_times = sorted(r.timestamp for r in pdme.router.workers[0].store.all_reports())
    assert delivered_times == [float(i) for i in range(92, 100)]


# ---------------------------------------------------------------------------
# Retry backoff (the fix): schedule unit-tested with a fake clock.
# ---------------------------------------------------------------------------

def test_retry_delay_schedule():
    kernel, net, pdme, uplink, unit, _ = make_world(
        retry_base=1.0, retry_factor=2.0, retry_cap=60.0
    )
    assert [uplink.retry_delay(n) for n in range(1, 9)] == [
        1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 60.0, 60.0  # capped
    ]
    with pytest.raises(NetworkError):
        uplink.retry_delay(0)


def test_backoff_parameters_validated():
    kernel, net, pdme, uplink, unit, _ = make_world()
    ep = uplink.endpoint
    with pytest.raises(NetworkError):
        ReportUplink(ep, retry_base=0.0)
    with pytest.raises(NetworkError):
        ReportUplink(ep, retry_factor=0.5)
    with pytest.raises(NetworkError):
        ReportUplink(ep, retry_base=10.0, retry_cap=5.0)


def test_flush_defers_until_backoff_expires():
    """A failed report is not re-sent every flush tick; each flush
    before its deadline defers it, and the deadlines grow 1, 2, 4...s
    after successive failures (fake clock, no real time involved)."""
    clock = SimulatedClock()
    kernel, net, pdme, uplink, unit, _ = make_world(
        LinkConfig(latency=0.01),
        clock=clock,  # backoff reads this fake clock, not the kernel's
        retry_base=1.0, retry_factor=2.0, retry_cap=60.0,
    )
    net.set_down("dc:0", "pdme", True)
    uplink.submit(report(unit.motor))
    kernel.run()  # first attempt fails (timeout + 1 retry)
    key = next(iter(uplink._queue))
    assert uplink.next_retry_at(key) == pytest.approx(clock.now() + 1.0)

    # Flushing before the deadline defers instead of transmitting.
    assert uplink.flush() == 0
    assert uplink.stats.deferred == 1
    assert uplink.stats.retries == 0

    # After the deadline the flush re-sends; the next failure doubles
    # the backoff.
    clock.advance(1.0)
    assert uplink.flush() == 1
    kernel.run()  # fails again against the downed link
    assert uplink.stats.retries == 1
    assert uplink.next_retry_at(key) == pytest.approx(clock.now() + 2.0)
    assert uplink.flush() == 0

    clock.advance(2.0)
    assert uplink.flush() == 1
    kernel.run()
    assert uplink.next_retry_at(key) == pytest.approx(clock.now() + 4.0)

    # force=True overrides the pacing (operator-commanded flush).
    assert uplink.flush(force=True) == 1
    kernel.run()

    # Recovery: once delivered, the backoff bookkeeping is dropped.
    net.set_down("dc:0", "pdme", False)
    clock.advance(60.0)
    uplink.flush()
    kernel.run()
    assert uplink.backlog == 0
    assert uplink.stats.delivered == 1
    assert uplink.next_retry_at(key) == float("-inf")


def test_backoff_caps_flush_storm():
    """100 queued reports + 100 flush ticks against a dead link: the
    paced uplink makes ~log(ticks) attempts per report instead of one
    per report per tick."""
    kernel, net, pdme, uplink, unit, _ = make_world(
        LinkConfig(latency=0.01), capacity=200,
        retry_base=1.0, retry_factor=2.0, retry_cap=512.0,
    )
    net.set_down("dc:0", "pdme", True)
    for i in range(100):
        uplink.submit(report(unit.motor, i))
    kernel.run()
    attempts = 0
    for _ in range(100):  # one flush per second, §4.9 recovery loop
        kernel.run_until(kernel.now() + 1.0)
        attempts += uplink.flush()
        kernel.run()
    # Unpaced this would be ~100 * 100 = 10k attempts; the exponential
    # schedule admits ceil(log2(100)) ≈ 7 per report.
    assert attempts <= 100 * 8
    assert uplink.stats.deferred > attempts
    assert conserved(uplink)
