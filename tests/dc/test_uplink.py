import numpy as np
import pytest

from repro.common.errors import NetworkError
from repro.dc.uplink import ReportUplink
from repro.netsim import EventKernel, LinkConfig, Network, RpcEndpoint
from repro.obs import MetricsRegistry
from repro.oosm import build_chilled_water_ship
from repro.pdme import PdmeExecutive
from repro.protocol import FailurePredictionReport


def make_world(link_config=None, seed=0, capacity=512):
    kernel = EventKernel()
    net = Network(kernel, np.random.default_rng(seed))
    if link_config is not None:
        net.connect("dc:0", "pdme", link_config)
    dc_ep = RpcEndpoint("dc:0", net, kernel, timeout=0.2, retries=1)
    pdme_ep = RpcEndpoint("pdme", net, kernel)
    model, ship, units = build_chilled_water_ship(n_chillers=1)
    pdme = PdmeExecutive(model)
    pdme.serve_on(pdme_ep)
    uplink = ReportUplink(dc_ep, "pdme", capacity=capacity)
    return kernel, net, pdme, uplink, units[0]


def report(obj, i=0):
    return FailurePredictionReport(
        knowledge_source_id="ks:dli",
        sensed_object_id=obj,
        machine_condition_id="mc:motor-imbalance",
        severity=0.5,
        belief=0.4,
        timestamp=float(i),
    )


def test_capacity_validation():
    kernel = EventKernel()
    net = Network(kernel, np.random.default_rng(0))
    ep = RpcEndpoint("dc:0", net, kernel)
    with pytest.raises(NetworkError):
        ReportUplink(ep, capacity=0)


def test_clean_link_delivers_and_clears_queue():
    kernel, net, pdme, uplink, unit = make_world()
    for i in range(5):
        uplink.submit(report(unit.motor, i))
    kernel.run()
    assert uplink.backlog == 0
    assert uplink.stats.delivered == 5
    assert pdme.report_count() == 5


def test_rejected_report_not_retried_forever():
    kernel, net, pdme, uplink, unit = make_world()
    uplink.submit(report("obj:ghost"))  # unknown object -> PDME refuses
    kernel.run()
    assert uplink.backlog == 0
    assert uplink.stats.rejected == 1
    assert pdme.report_count() == 0


def test_outage_queues_then_flush_recovers():
    """§4.9: reports produced during a comms outage survive and are
    delivered after recovery."""
    kernel, net, pdme, uplink, unit = make_world(LinkConfig(latency=0.01))
    net.set_down("dc:0", "pdme", True)
    for i in range(10):
        uplink.submit(report(unit.motor, i))
    kernel.run()
    assert pdme.report_count() == 0
    assert uplink.backlog == 10
    # Link restored; once the retry backoff expires the scheduled
    # flush retries everything.
    net.set_down("dc:0", "pdme", False)
    kernel.run_until(kernel.now() + uplink.retry_cap)
    uplink.flush()
    kernel.run()
    assert uplink.backlog == 0
    assert pdme.report_count() == 10
    assert uplink.stats.retries >= 10


def test_flush_is_idempotent_on_empty_queue():
    kernel, net, pdme, uplink, unit = make_world()
    assert uplink.flush() == 0


def test_bounded_queue_sheds_oldest():
    kernel, net, pdme, uplink, unit = make_world(
        LinkConfig(latency=0.01), capacity=4
    )
    net.set_down("dc:0", "pdme", True)
    for i in range(10):
        uplink.submit(report(unit.motor, i))
        kernel.run()  # let the failed attempts resolve
    assert uplink.backlog == 4
    assert uplink.stats.shed == 6
    net.set_down("dc:0", "pdme", False)
    kernel.run_until(kernel.now() + uplink.retry_cap)
    uplink.flush()
    kernel.run()
    # The four newest survive.
    times = sorted(r.timestamp for r in pdme.router.workers[0].store.all_reports())
    assert times == [6.0, 7.0, 8.0, 9.0]


def test_lossy_link_eventually_delivers_with_flushes():
    """At-least-once delivery: retransmissions may reach the PDME more
    than once, but idempotent intake fuses each report exactly once."""
    kernel, net, pdme, uplink, unit = make_world(
        LinkConfig(latency=0.01, drop_rate=0.6), seed=3
    )
    for i in range(10):
        uplink.submit(report(unit.motor, i))
    for _ in range(30):  # periodic flush simulation
        kernel.run()
        if uplink.backlog == 0:
            break
        kernel.run_until(kernel.now() + 60.0)  # one flush period later
        uplink.flush()
    assert uplink.backlog == 0
    assert uplink.stats.delivered == 10
    assert pdme.report_count() == 10        # duplicates dropped at intake
    assert pdme.duplicates_dropped >= 0


def make_metered_world(capacity=4, latency=0.01):
    """Like make_world but with a private registry so the shed-age
    instruments can be asserted without cross-test bleed."""
    metrics = MetricsRegistry()
    kernel = EventKernel()
    net = Network(kernel, np.random.default_rng(0))
    net.connect("dc:0", "pdme", LinkConfig(latency=latency))
    dc_ep = RpcEndpoint("dc:0", net, kernel, timeout=0.2, retries=1)
    pdme_ep = RpcEndpoint("pdme", net, kernel)
    model, ship, units = build_chilled_water_ship(n_chillers=1)
    pdme = PdmeExecutive(model)
    pdme.serve_on(pdme_ep)
    uplink = ReportUplink(dc_ep, "pdme", capacity=capacity, metrics=metrics)
    return kernel, net, pdme, uplink, units[0], metrics


def test_shed_age_accounting_records_the_oldest_victim():
    """`shed == 6` alone cannot say how stale the discard was; the
    shed-age stat/histogram/gauge can."""
    kernel, net, pdme, uplink, unit, metrics = make_metered_world(capacity=4)
    net.set_down("dc:0", "pdme", True)
    kernel.run_until(100.0)                 # reports are already 100 s old
    for i in range(10):
        uplink.submit(report(unit.motor, i))
        kernel.run()                        # settle the failed attempts
    assert uplink.stats.shed == 6
    # The first victim carried timestamp 0.0 and was shed after t=100,
    # so the worst observed age is at least the pre-outage gap.
    assert uplink.stats.oldest_shed_age >= 100.0
    assert uplink.stats.oldest_shed_age <= kernel.now()
    hist = metrics.histogram("dc.uplink.shed_age_seconds", dc="dc:0")
    assert hist.count == 6
    gauge = metrics.gauge("dc.uplink.oldest_shed_age_seconds", dc="dc:0")
    assert gauge.value == uplink.stats.oldest_shed_age


def test_shed_stale_sheds_only_old_settled_reports():
    kernel, net, pdme, uplink, unit, metrics = make_metered_world(capacity=64)
    net.set_down("dc:0", "pdme", True)
    for i in range(5):
        uplink.submit(report(unit.motor, i))     # timestamps 0..4
    kernel.run()
    kernel.run_until(1000.0)
    uplink.submit(report(unit.motor, 999))        # fresh, age ~1 s
    kernel.run()
    assert uplink.backlog == 6
    assert uplink.shed_stale(500.0) == 5
    assert uplink.backlog == 1
    assert uplink.stats.shed == 5
    assert uplink.stats.oldest_shed_age >= 1000.0
    # The survivor still delivers once the link returns.
    net.set_down("dc:0", "pdme", False)
    uplink.flush(force=True)
    kernel.run()
    assert pdme.report_count() == 1
    assert [r.timestamp for r in pdme.router.workers[0].store.all_reports()] == [999.0]


def test_shed_stale_skips_in_flight_reports_and_validates_cutoff():
    kernel, net, pdme, uplink, unit, metrics = make_metered_world()
    net.set_down("dc:0", "pdme", True)
    kernel.run_until(100.0)
    uplink.submit(report(unit.motor, 0))
    # No kernel.run(): the submit's attempt is still in flight, so the
    # report is pinned even though it is far past the cutoff.
    assert uplink.shed_stale(10.0) == 0
    assert uplink.backlog == 1
    kernel.run()                            # the attempt fails; now settled
    assert uplink.shed_stale(10.0) == 1
    assert uplink.backlog == 0
    with pytest.raises(NetworkError):
        uplink.shed_stale(0.0)
    with pytest.raises(NetworkError):
        uplink.shed_stale(-5.0)


def test_flush_batched_limit_takes_oldest_first():
    kernel, net, pdme, uplink, unit, metrics = make_metered_world(capacity=64)
    net.set_down("dc:0", "pdme", True)
    for i in range(6):
        uplink.submit(report(unit.motor, i))
    kernel.run()
    net.set_down("dc:0", "pdme", False)
    assert uplink.flush_batched(force=True, max_batch=2, limit=3) == 3
    kernel.run()
    assert pdme.report_count() == 3
    # The bounded chunk drained the *oldest* reports; the rest stayed
    # queued untouched.
    assert sorted(r.timestamp for r in pdme.router.workers[0].store.all_reports()) == [0.0, 1.0, 2.0]
    assert uplink.backlog == 3
    assert uplink.flush_batched(force=True, max_batch=8) == 3
    kernel.run()
    assert uplink.backlog == 0
    assert pdme.report_count() == 6


def test_flush_batched_validation():
    kernel, net, pdme, uplink, unit = make_world()
    with pytest.raises(NetworkError):
        uplink.flush_batched(max_batch=0)
    with pytest.raises(NetworkError):
        uplink.flush_batched(limit=0)


def test_lost_ack_retransmission_is_idempotent():
    """Drop-prone link where some *acks* are lost: the report reaches
    the PDME once (fused once), the uplink counts one delivery, even
    though retransmissions occurred."""
    kernel, net, pdme, uplink, unit = make_world(
        LinkConfig(latency=0.01, drop_rate=0.5), seed=7
    )
    uplink.submit(report(unit.motor))
    for _ in range(30):
        kernel.run()
        if uplink.backlog == 0:
            break
        kernel.run_until(kernel.now() + 60.0)  # one flush period later
        uplink.flush()
    assert uplink.backlog == 0
    assert uplink.stats.delivered == 1
    assert pdme.report_count() == 1
