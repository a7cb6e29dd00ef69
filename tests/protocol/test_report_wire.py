import json
import math

import numpy as np
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
from repro.protocol.wire import WIRE_VERSION, from_json, report_text, to_json


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


# -- the stored form: report_text ------------------------------------------

#: Every code point, lone surrogates and control characters included.
any_text = st.text(st.characters(exclude_categories=()), max_size=24)
ids = st.text(st.characters(exclude_categories=()), min_size=1, max_size=12)
unit_numbers = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.0, -0.0, 5e-324, 1.0, 0, 1, True, False]),
    st.floats(min_value=0.0, max_value=1.0).map(np.float64),
)
timestamps = st.one_of(
    st.floats(min_value=0.0, max_value=1e308),
    st.sampled_from([0.0, -0.0, 5e-324, 1e308, 0, 12]),
    st.integers(min_value=0, max_value=10**12),
    st.floats(min_value=0.0, max_value=1e9).map(np.float64),
)


@st.composite
def prognostics(draw):
    """Empty, one-point and multi-point vectors; float, int and
    ``np.float64`` knots."""
    n = draw(st.integers(min_value=0, max_value=5))
    times = sorted(draw(st.lists(
        st.floats(min_value=0.0, max_value=1e308), min_size=n, max_size=n, unique=True
    )))
    probs = sorted(draw(st.lists(unit_numbers, min_size=n, max_size=n)), key=float)
    kind = draw(st.sampled_from([float, np.float64, "int"]))
    if kind == "int":
        times = [int(t) if t < 2**53 else t for t in times]
        times = sorted(set(times))
        probs = probs[:len(times)]
    else:
        times = [kind(t) for t in times]
    return PrognosticVector.from_pairs(list(zip(times, probs)))


@st.composite
def stored_reports(draw):
    return FailurePredictionReport(
        knowledge_source_id=draw(ids),
        sensed_object_id=draw(ids),
        machine_condition_id=draw(ids),
        severity=draw(unit_numbers),
        belief=draw(unit_numbers),
        timestamp=draw(timestamps),
        dc_id=draw(any_text),
        explanation=draw(any_text),
        recommendations=draw(any_text),
        additional_info=draw(any_text),
        prognostic=draw(prognostics()),
        degraded=draw(st.booleans()),
    )


@settings(max_examples=400, deadline=None)
@given(stored_reports())
def test_report_text_is_json_dumps_of_the_wire_dict(report):
    assert report_text(report) == json.dumps(encode_report(report))


@pytest.mark.parametrize("text", [
    "", "\x00\x1f\x7f", '"\\/', "café", "温度", "\U0001f525", "\u2028\u2029", "\ud800",
])
def test_report_text_escapes_like_json(text):
    report = make_report(explanation=text, dc_id=text, additional_info=text)
    assert report_text(report) == json.dumps(encode_report(report))


def test_report_text_renders_any_field_type_as_json_does():
    # Fields a frozen dataclass cannot refuse by type: non-wire builders
    # pass ints, numpy scalars, str subclasses and non-bool flags.
    class Tag(str):
        pass

    report = make_report(
        severity=np.float64(0.25), belief=1, timestamp=10**15,
        dc_id=Tag("dc:7"), degraded=0,
        prognostic=PrognosticVector.from_pairs([(np.float64(1.5), 0), (7, 1.0)]),
    )
    assert report_text(report) == json.dumps(encode_report(report))
    # Non-finite knots cannot come from the wire, but a trusted vector
    # can carry them; json's NaN/Infinity tokens come out unchanged.
    odd = make_report(prognostic=PrognosticVector._trusted(
        [(math.inf, math.nan), (-math.inf, 0.5)]
    ))
    assert report_text(odd) == json.dumps(encode_report(odd))


# -- one-pass decode against the convert-then-check reference -------------

_REFERENCE_REQUIRED = (
    "knowledge_source_id",
    "sensed_object_id",
    "machine_condition_id",
    "severity",
    "belief",
    "timestamp",
)


def reference_decode(payload):
    """The decoder before one-pass decoding: it converts every pair,
    then checks every pair, then the numbers, then builds the report."""
    version = payload.get("v", WIRE_VERSION)
    if version != WIRE_VERSION:
        raise ProtocolError(f"unsupported wire version {version}")
    missing = [k for k in _REFERENCE_REQUIRED if k not in payload]
    if missing:
        raise ProtocolError(f"wire payload missing fields: {missing}")
    try:
        prognostic = PrognosticVector.from_pairs(
            [(float(t), float(p)) for t, p in payload.get("prognostic", [])]
        )
        severity = float(payload["severity"])
        belief = float(payload["belief"])
        timestamp = float(payload["timestamp"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"malformed numeric field: {exc}") from exc
    return FailurePredictionReport(
        knowledge_source_id=str(payload["knowledge_source_id"]),
        sensed_object_id=str(payload["sensed_object_id"]),
        machine_condition_id=str(payload["machine_condition_id"]),
        severity=severity,
        belief=belief,
        timestamp=timestamp,
        dc_id=str(payload.get("dc_id", "")),
        explanation=str(payload.get("explanation", "")),
        recommendations=str(payload.get("recommendations", "")),
        additional_info=str(payload.get("additional_info", "")),
        prognostic=prognostic,
        degraded=bool(payload.get("degraded", False)),
    )


def _outcome(decode, payload):
    try:
        return "ok", decode(payload)
    except Exception as exc:  # the exception type and text are the outcome
        return type(exc), str(exc)


def assert_same_outcome(payload):
    assert _outcome(decode_report, payload) == _outcome(reference_decode, payload)


BAD_NUMBERS = [math.nan, math.inf, -math.inf, "abc", "nan", None, [1], {"v": 1}, 10**400,
               -1.0, 2.0, True, "0.5"]


@st.composite
def many_poisoned_payloads(draw):
    """A valid payload with one to four numeric fields replaced by bad
    values (non-finite, non-numeric, overflowing, out of range), a pair
    replaced by a malformed shape, or the pairs shuffled."""
    payload = draw(poisoned_payloads())
    pairs = [list(pair) for pair in payload["prognostic"]]
    fields = ["severity", "belief", "timestamp", "v"] + [
        (i, j) for i in range(len(pairs)) for j in (0, 1)
    ] + [("shape", i) for i in range(len(pairs))]
    targets = draw(st.lists(st.sampled_from(fields), min_size=1, max_size=4))
    for target in targets:
        if isinstance(target, str):
            payload[target] = draw(st.sampled_from(BAD_NUMBERS + [2]))
        elif target[0] != "shape":
            i, j = target
            pairs[i][j] = draw(st.sampled_from(BAD_NUMBERS))
    for target in targets:
        if isinstance(target, tuple) and target[0] == "shape":
            pairs[target[1]] = draw(st.sampled_from([[1.0], [1.0, 0.5, 0.1], "12", 7, None]))
    if draw(st.booleans()):
        pairs = draw(st.permutations(pairs))
    payload["prognostic"] = pairs if draw(st.integers(0, 9)) else draw(
        st.sampled_from([None, 5, "xy", {"ab": 1}])
    )
    if draw(st.integers(0, 9)) == 0:
        del payload[draw(st.sampled_from(list(_REFERENCE_REQUIRED)))]
    return payload


@settings(max_examples=200, deadline=None)
@given(poisoned_payloads())
def test_decode_refusals_match_the_reference_on_single_poison(payload):
    assert_same_outcome(payload)


@settings(max_examples=600, deadline=None)
@given(many_poisoned_payloads())
def test_decode_refusals_match_the_reference_on_many_poisons(payload):
    assert_same_outcome(payload)


@settings(max_examples=200, deadline=None)
@given(stored_reports())
def test_decode_matches_the_reference_on_valid_payloads(report):
    assert_same_outcome(encode_report(report))


@st.composite
def reordered_payloads(draw):
    """A valid payload whose pairs are permuted, with a time or a
    probability sometimes repeated or swapped: sorted by the decoder
    when the vector rule still holds, refused when it does not."""
    payload = encode_report(draw(stored_reports()))
    pairs = [list(pair) for pair in payload["prognostic"]]
    if pairs and draw(st.booleans()):
        pairs.append(list(draw(st.sampled_from(pairs))))
    if len(pairs) > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(len(pairs))))[:2]
        pairs[i][1], pairs[j][1] = pairs[j][1], pairs[i][1]
    payload["prognostic"] = draw(st.permutations(pairs))
    return payload


@settings(max_examples=300, deadline=None)
@given(reordered_payloads())
def test_decode_matches_the_reference_on_reordered_pairs(payload):
    assert_same_outcome(payload)


@pytest.mark.parametrize("field", ["severity", "belief", "timestamp", "prognostic"])
def test_overflow_refusal_matches_the_reference(field):
    payload = encode_report(make_report())
    payload[field] = [[10**400, 0.5]] if field == "prognostic" else 10**400
    assert_same_outcome(payload)


def test_a_non_numeric_pair_is_refused_ahead_of_an_earlier_non_finite_one():
    # Converted first, checked second: the "abc" probability of the
    # second pair is the refusal, not the NaN time of the first.
    payload = encode_report(make_report())
    payload["prognostic"] = [[math.nan, 0.5], [7200.0, "abc"]]
    with pytest.raises(ProtocolError, match="malformed numeric field"):
        decode_report(payload)
    assert_same_outcome(payload)
    payload["prognostic"] = [[math.nan, 0.5], [7200.0, 0.6]]
    payload["severity"] = "abc"
    with pytest.raises(ProtocolError, match="prognostic time must be finite"):
        decode_report(payload)
    assert_same_outcome(payload)
