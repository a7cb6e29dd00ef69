"""Batched report intake: ``post_report_batch`` RPC and the batched
uplink flush.

The contract under test: per-report decisions (accepted / duplicate /
refused) from one batch RPC are identical to ``post_report`` called
once per entry in order — including duplicates *within* a batch — and
the fused OOSM state ends up the same either way.
"""

import numpy as np
import pytest

from repro.common.errors import NetworkError
from repro.dc.uplink import ReportUplink
from repro.netsim import EventKernel, LinkConfig, Network, RpcEndpoint
from repro.obs import MetricsRegistry
from repro.oosm import build_chilled_water_ship
from repro.pdme import PdmeExecutive
from repro.protocol import FailurePredictionReport
from repro.protocol.wire import encode_report


def report(obj, i=0, belief=0.4):
    return FailurePredictionReport(
        knowledge_source_id="ks:dli",
        sensed_object_id=obj,
        machine_condition_id="mc:motor-imbalance",
        severity=0.5,
        belief=belief,
        timestamp=float(i),
    )


def make_pdme():
    model, ship, units = build_chilled_water_ship(n_chillers=1)
    pdme = PdmeExecutive(model)
    return model, pdme, units[0]


def payload(obj, i=0, rid=None, belief=0.4):
    p = encode_report(report(obj, i, belief))
    if rid is not None:
        p["report_id"] = rid
    return p


# -- the RPC handler directly -----------------------------------------------

def test_batch_rpc_mixed_results_align_with_request_order():
    model, pdme, unit = make_pdme()
    reply = pdme._rpc_post_report_batch({
        "reports": [
            payload(unit.motor, 0, rid="dc:0#0"),
            payload(unit.motor, 0, rid="dc:0#0"),       # intra-batch dup
            payload("obj:ghost", 1, rid="dc:0#1"),      # unknown object
            "not-a-mapping",                            # malformed entry
            payload(unit.motor, 2, rid="dc:0#2"),
        ]
    })
    assert reply["accepted"] is True
    assert reply["accepted_count"] == 2
    r = reply["results"]
    assert r[0] == {"accepted": True}
    assert r[1] == {"accepted": True, "duplicate": True}
    assert r[2]["accepted"] is False and "ghost" in r[2]["error"]
    assert r[3]["accepted"] is False
    assert r[4] == {"accepted": True}
    assert model.report_count == 2
    assert pdme.duplicates_dropped == 1


@pytest.mark.parametrize("field, bad", [
    ("severity", "abc"), ("belief", None), ("timestamp", [1]),
])
def test_batch_rpc_refuses_only_the_non_numeric_entry(field, bad):
    model, pdme, unit = make_pdme()
    reply = pdme._rpc_post_report_batch({
        "reports": [
            payload(unit.motor, 0, rid="dc:0#0"),
            {**payload(unit.motor, 1, rid="dc:0#1"), field: bad},
            payload(unit.motor, 2, rid="dc:0#2"),
        ]
    })
    assert reply["accepted_count"] == 2
    r = reply["results"]
    assert r[0] == {"accepted": True}
    assert r[1]["accepted"] is False and "malformed" in r[1]["error"]
    assert r[2] == {"accepted": True}
    assert model.report_count == 2


def test_batch_rpc_dedups_against_earlier_singles():
    model, pdme, unit = make_pdme()
    assert pdme._rpc_post_report({**payload(unit.motor, 0, rid="dc:0#0")})["accepted"]
    reply = pdme._rpc_post_report_batch({
        "reports": [
            payload(unit.motor, 0, rid="dc:0#0"),       # replayed ack loss
            payload(unit.motor, 1, rid="dc:0#1"),
        ]
    })
    assert reply["results"][0] == {"accepted": True, "duplicate": True}
    assert reply["results"][1] == {"accepted": True}
    assert model.report_count == 2


def test_batch_rpc_fingerprint_dedup_for_idless_senders():
    model, pdme, unit = make_pdme()
    same = payload(unit.motor, 0)
    reply = pdme._rpc_post_report_batch({"reports": [same, dict(same)]})
    assert reply["results"][0] == {"accepted": True}
    assert reply["results"][1] == {"accepted": True, "duplicate": True}
    assert model.report_count == 1


def test_batch_rpc_rejects_non_list():
    model, pdme, unit = make_pdme()
    reply = pdme._rpc_post_report_batch({"reports": "nope"})
    assert reply["accepted"] is False


def test_batch_equals_singles_fused_state():
    model_a, pdme_a, unit_a = make_pdme()
    model_b, pdme_b, unit_b = make_pdme()
    payloads = [
        payload(unit_a.motor, i, rid=f"dc:0#{i}", belief=0.3 + 0.05 * i)
        for i in range(6)
    ]
    for p in payloads:
        pdme_a._rpc_post_report(dict(p))
    pdme_b._rpc_post_report_batch({"reports": [dict(p) for p in payloads]})
    sa = pdme_a.engine.diagnostic.state(unit_a.motor, "rotating-mechanical")
    sb = pdme_b.engine.diagnostic.state(unit_b.motor, "rotating-mechanical")
    for c in sa.beliefs:
        assert sa.beliefs[c] == pytest.approx(sb.beliefs[c], abs=1e-12)
    assert model_a.report_count == model_b.report_count == 6


# -- the uplink batched flush over the simulated network --------------------

def make_world(**uplink_kw):
    metrics = MetricsRegistry()
    kernel = EventKernel(metrics=metrics)
    net = Network(kernel, np.random.default_rng(0), metrics=metrics)
    net.connect("dc:0", "pdme", LinkConfig())
    dc_ep = RpcEndpoint("dc:0", net, kernel, timeout=0.2, retries=1, metrics=metrics)
    pdme_ep = RpcEndpoint("pdme", net, kernel, metrics=metrics)
    model, ship, units = build_chilled_water_ship(n_chillers=1)
    pdme = PdmeExecutive(model, metrics=metrics)
    pdme.serve_on(pdme_ep)
    uplink = ReportUplink(dc_ep, "pdme", metrics=metrics, **uplink_kw)
    return kernel, net, pdme, uplink, units[0].motor


def test_flush_batched_delivers_backlog_in_one_rpc_per_chunk():
    kernel, net, pdme, uplink, motor = make_world()
    net.set_down("dc:0", "pdme", True)
    for i in range(10):
        uplink.submit(report(motor, i))
    kernel.run()                      # initial sends fail; all queued
    assert uplink.backlog == 10
    net.set_down("dc:0", "pdme", False)
    sent_before = net.stats()["sent"]
    assert uplink.flush_batched(force=True, max_batch=4) == 10
    kernel.run()
    assert uplink.backlog == 0
    assert uplink.stats.delivered == 10
    assert pdme.report_count() == 10
    # 3 chunks (4+4+2): 3 requests + 3 replies, not 10 of each.
    assert net.stats()["sent"] - sent_before == 6


def test_flush_batched_respects_backoff_unless_forced():
    kernel, net, pdme, uplink, motor = make_world(
        retry_base=1000.0, retry_cap=1000.0
    )
    net.set_down("dc:0", "pdme", True)
    uplink.submit(report(motor, 0))
    kernel.run()
    assert uplink.backlog == 1
    net.set_down("dc:0", "pdme", False)
    assert uplink.flush_batched() == 0        # still inside backoff
    assert uplink.stats.deferred >= 1
    assert uplink.flush_batched(force=True) == 1
    kernel.run()
    assert uplink.backlog == 0


def test_flush_batched_replay_is_exactly_once_at_oosm():
    kernel, net, pdme, uplink, motor = make_world()
    for i in range(3):
        uplink.submit(report(motor, i))
    kernel.run()
    assert pdme.report_count() == 3
    # A crashed DC re-queues and re-sends the same ids via the batch
    # path; PDME dedup keeps the OOSM exactly-once.
    for key in range(3):
        uplink._queue[key] = report(motor, key)
    assert uplink.flush_batched(force=True) == 3
    kernel.run()
    assert pdme.report_count() == 3
    assert pdme.duplicates_dropped == 3


def test_flush_batched_validates_max_batch():
    kernel, net, pdme, uplink, motor = make_world()
    with pytest.raises(NetworkError):
        uplink.flush_batched(max_batch=0)
