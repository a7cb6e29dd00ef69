import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ProtocolError
from repro.protocol import (
    FailurePredictionReport,
    PrognosticVector,
    ReportKind,
    decode_report,
    encode_report,
)
from repro.protocol.wire import from_json, to_json


def make_report(**overrides):
    base = dict(
        knowledge_source_id="ks:0000",
        sensed_object_id="obj:0001",
        machine_condition_id="mc:0002",
        severity=0.6,
        belief=0.8,
        timestamp=12.0,
        dc_id="dc:0000",
        explanation="bearing housing looseness",
        recommendations="inspect at next port call",
        prognostic=PrognosticVector.from_pairs([(3600.0, 0.1), (7200.0, 0.5)]),
    )
    base.update(overrides)
    return FailurePredictionReport(**base)


# -- validation ---------------------------------------------------------

def test_requires_nonempty_ids():
    with pytest.raises(ProtocolError):
        make_report(knowledge_source_id="")
    with pytest.raises(ProtocolError):
        make_report(sensed_object_id="")
    with pytest.raises(ProtocolError):
        make_report(machine_condition_id="")


def test_severity_and_belief_bounds():
    with pytest.raises(ProtocolError):
        make_report(severity=1.2)
    with pytest.raises(ProtocolError):
        make_report(belief=-0.1)


def test_negative_timestamp_rejected():
    with pytest.raises(ProtocolError):
        make_report(timestamp=-1.0)


def test_prognostic_type_enforced():
    with pytest.raises(ProtocolError):
        make_report(prognostic=[(1.0, 0.5)])


# -- kind classification -------------------------------------------------

def test_kind_combined():
    assert make_report().kind is ReportKind.COMBINED


def test_kind_diagnostic_when_no_vector():
    r = make_report(prognostic=PrognosticVector.empty())
    assert r.kind is ReportKind.DIAGNOSTIC


def test_kind_prognostic_when_no_belief():
    r = make_report(belief=0.0)
    assert r.kind is ReportKind.PROGNOSTIC


def test_with_timestamp_restamps():
    r = make_report().with_timestamp(99.0)
    assert r.timestamp == 99.0
    assert r.machine_condition_id == "mc:0002"


def test_summary_mentions_condition():
    assert "mc:0002" in make_report().summary()


# -- wire round trips -----------------------------------------------------

def test_encode_decode_roundtrip():
    r = make_report()
    assert decode_report(encode_report(r)) == r


def test_json_roundtrip():
    r = make_report()
    assert from_json(to_json(r)) == r


def test_decode_missing_field_raises():
    payload = encode_report(make_report())
    del payload["belief"]
    with pytest.raises(ProtocolError):
        decode_report(payload)


def test_decode_bad_version_raises():
    payload = encode_report(make_report())
    payload["v"] = 999
    with pytest.raises(ProtocolError):
        decode_report(payload)


def test_decode_malformed_prognostic_raises():
    payload = encode_report(make_report())
    payload["prognostic"] = [["x", "y"]]
    with pytest.raises(ProtocolError):
        decode_report(payload)


@pytest.mark.parametrize("field", ["severity", "belief", "timestamp", "prognostic"])
def test_decode_refuses_an_integer_too_large_for_a_float(field):
    # float(10**400) raises OverflowError, not ValueError.
    payload = encode_report(make_report())
    payload[field] = [[10**400, 0.5]] if field == "prognostic" else 10**400
    with pytest.raises(ProtocolError, match="malformed numeric field"):
        decode_report(payload)
    with pytest.raises(ProtocolError):
        from_json(json.dumps(payload))


def test_from_json_rejects_non_object():
    with pytest.raises(ProtocolError):
        from_json("[1,2,3]")
    with pytest.raises(ProtocolError):
        from_json("{not json")


def test_optional_text_fields_default_blank():
    payload = encode_report(make_report())
    del payload["explanation"], payload["recommendations"], payload["additional_info"]
    r = decode_report(payload)
    assert r.explanation == "" and r.recommendations == ""


@settings(max_examples=50, deadline=None)
@given(
    severity=st.floats(min_value=0.0, max_value=1.0),
    belief=st.floats(min_value=0.0, max_value=1.0),
    timestamp=st.floats(min_value=0.0, max_value=1e9),
    text=st.text(max_size=64),
)
def test_roundtrip_property(severity, belief, timestamp, text):
    r = make_report(
        severity=severity, belief=belief, timestamp=timestamp, explanation=text,
        prognostic=PrognosticVector.empty(),
    )
    assert from_json(to_json(r)) == r


@st.composite
def poisoned_payloads(draw):
    """A valid wire payload with one numeric field made NaN, ±Inf or
    non-numeric (str, None, list, dict)."""
    n = draw(st.integers(min_value=1, max_value=4))
    times = sorted(
        draw(st.lists(st.floats(min_value=0.0, max_value=1e8),
                      min_size=n, max_size=n, unique=True))
    )
    probs = sorted(
        draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n))
    )
    payload = encode_report(make_report(
        severity=draw(st.floats(min_value=0.0, max_value=1.0)),
        belief=draw(st.floats(min_value=0.0, max_value=1.0)),
        timestamp=draw(st.floats(min_value=0.0, max_value=1e9)),
        prognostic=PrognosticVector.from_pairs(list(zip(times, probs))),
    ))
    fields = ["severity", "belief", "timestamp"] + [
        (i, j) for i in range(n) for j in (0, 1)
    ]
    target = draw(st.sampled_from(fields))
    bad = draw(st.sampled_from(
        [math.nan, math.inf, -math.inf, "abc", None, [1], {"v": 1}]
    ))
    if isinstance(target, str):
        payload[target] = bad
    else:
        i, j = target
        pair = list(payload["prognostic"][i])
        pair[j] = bad
        payload["prognostic"][i] = pair
    return payload


@settings(max_examples=200, deadline=None)
@given(poisoned_payloads())
def test_decode_rejects_non_finite_numbers(payload):
    with pytest.raises(ProtocolError):
        decode_report(payload)
    # json.dumps writes NaN/Infinity tokens, which json.loads accepts.
    with pytest.raises(ProtocolError):
        from_json(json.dumps(payload))
