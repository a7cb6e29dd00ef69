"""Batched report intake: ``post_report_batch`` RPC and the batched
uplink flush.

The contract under test: per-report decisions (accepted / duplicate /
refused) from one batch RPC are identical to ``post_report`` called
once per entry in order — including duplicates *within* a batch — and
the fused OOSM state ends up the same either way.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import NetworkError
from repro.dc.uplink import ReportUplink
from repro.netsim import EventKernel, LinkConfig, Network, RpcEndpoint
from repro.obs import MetricsRegistry
from repro.oosm import ReportPosted, build_chilled_water_ship
from repro.pdme import PdmeExecutive
from repro.protocol import FailurePredictionReport, PrognosticVector
from repro.protocol.canonical import canonical_dumps
from repro.protocol.wire import decode_report, encode_report


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
    assert pdme.report_count() == 2
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
    assert pdme.report_count() == 2


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
    assert pdme.report_count() == 2


def test_batch_rpc_fingerprint_dedup_for_idless_senders():
    model, pdme, unit = make_pdme()
    same = payload(unit.motor, 0)
    reply = pdme._rpc_post_report_batch({"reports": [same, dict(same)]})
    assert reply["results"][0] == {"accepted": True}
    assert reply["results"][1] == {"accepted": True, "duplicate": True}
    assert pdme.report_count() == 1


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
    assert pdme_a.report_count() == pdme_b.report_count() == 6


# -- one post_report per entry == one post_report_batch ---------------------

_CONDITIONS = ("mc:motor-imbalance", "mc:shaft-misalignment", "mc:bearing-wear")
_PAIRS = ((), ((3600.0, 0.5),), ((600.0, 0.1), (7200.0, 0.9)))

# Small discrete domains, so equal contents (and so fingerprint
# duplicates) and reused ids come up often.
_content = st.tuples(
    st.sampled_from(("motor", "pump", "ghost")),
    st.sampled_from(_CONDITIONS),
    st.integers(0, 5),
    st.sampled_from((0.0, 0.3, 0.6, 0.9)),
    st.sampled_from(_PAIRS),
)
_entries = st.lists(
    st.one_of(
        st.tuples(st.just("id"), st.integers(0, 5), _content),
        st.tuples(st.just("no-id"), st.none(), _content),
        st.tuples(
            st.just("bad"),
            st.sampled_from(("severity", "belief", "timestamp")),
            st.sampled_from(("abc", None, [1])),
        ),
        st.just(("junk", None, None)),
    ),
    max_size=25,
)


def _wire(unit, spec):
    kind, key, detail = spec
    if kind == "junk":
        return "not-a-mapping"
    if kind == "bad":
        return {**payload(unit.motor, 0), key: detail}
    obj, cond, t, belief, pairs = detail
    p = encode_report(FailurePredictionReport(
        knowledge_source_id="ks:dli",
        sensed_object_id="obj:ghost" if obj == "ghost" else getattr(unit, obj),
        machine_condition_id=cond,
        severity=0.5,
        belief=belief,
        timestamp=60.0 * t,
        prognostic=PrognosticVector.from_pairs(list(pairs)),
    ))
    if kind == "id":
        p["report_id"] = f"dc:0#{key}"
    return p


def _intake_state(pdme, unit):
    counters = pdme.metrics.snapshot()["counters"]
    episodes = {}
    for obj in (unit.motor, unit.pump):
        for cond in _CONDITIONS:
            tracker = pdme.temporal.tracker(obj, cond)
            episodes[(obj, cond)] = (tracker.episodes, tracker.active)
    return (
        pdme.duplicates_dropped,
        {k: v for k, v in counters.items() if k.startswith("pdme.")},
        canonical_dumps(pdme.fused_model()),
        episodes,
    )


@settings(max_examples=60, deadline=None)
@given(_entries)
def test_single_and_batch_intake_make_the_same_decisions(specs):
    model_a, ship_a, units_a = build_chilled_water_ship(n_chillers=1)
    model_b, ship_b, units_b = build_chilled_water_ship(n_chillers=1)
    single = PdmeExecutive(model_a, metrics=MetricsRegistry())
    batch = PdmeExecutive(model_b, metrics=MetricsRegistry())
    posted = []
    model_a.bus.subscribe(ReportPosted, lambda event: posted.append(event.report))
    entries = [_wire(units_a[0], spec) for spec in specs]

    replies = [
        single._rpc_post_report(dict(e) if isinstance(e, dict) else e)
        for e in entries
    ]
    reply = batch._rpc_post_report_batch({
        "reports": [dict(e) if isinstance(e, dict) else e for e in entries]
    })

    assert reply["results"] == replies
    accepted = [e for e, r in zip(entries, replies) if r == {"accepted": True}]
    assert reply["accepted_count"] == len(accepted)
    assert [encode_report(r) for r in posted] == [
        encode_report(decode_report(e)) for e in accepted
    ]
    assert _intake_state(single, units_a[0]) == _intake_state(batch, units_b[0])


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
