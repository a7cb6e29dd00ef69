"""Property-based tests for the byte-level framing (§4.9 robustness).

Two guarantees the rest of the system leans on:

* any JSON-object payload round-trips exactly, and
* a single flipped bit anywhere in a frame raises
  :class:`~repro.common.errors.NetworkError` — corruption is *never*
  silently decoded into a different payload.

CRC32 detects every single-bit error, and bit flips in the length
header produce a length mismatch, so the second property is exhaustive
over flip positions, not probabilistic.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import NetworkError
from repro.netsim.transport import _HEADER, decode_message, encode_message
from repro.obs import MetricsRegistry

# JSON-compatible values.  NaN/inf are excluded because the frame
# format is strict JSON on the wire (json.dumps would emit non-standard
# tokens, and NaN != NaN breaks round-trip equality anyway).
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
)
_json_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(st.text(max_size=10), children, max_size=6),
    ),
    max_leaves=25,
)
_payloads = st.dictionaries(st.text(max_size=12), _json_values, max_size=8)


@settings(max_examples=200, derandomize=True)
@given(payload=_payloads)
def test_roundtrip_arbitrary_json_payloads(payload):
    assert decode_message(encode_message(payload)) == payload


@settings(max_examples=300, derandomize=True)
@given(value=st.floats(allow_nan=False, allow_infinity=False))
def test_finite_floats_decode_bit_identically(value):
    # The finiteness check hands back float()'s own result, so every
    # finite float, signed zeros and subnormals included, crosses a
    # frame bit for bit.
    decoded = decode_message(encode_message({"x": value}))["x"]
    assert struct.pack("<d", decoded) == struct.pack("<d", value)


@settings(max_examples=200, derandomize=True)
@given(payload=_payloads, data=st.data())
def test_any_single_bit_flip_is_detected(payload, data):
    """Flip one bit anywhere (header or body): decoding must raise,
    never silently return a different payload."""
    frame = bytearray(encode_message(payload))
    bit = data.draw(st.integers(min_value=0, max_value=len(frame) * 8 - 1))
    frame[bit // 8] ^= 1 << (bit % 8)
    with pytest.raises(NetworkError):
        decode_message(bytes(frame))


@settings(max_examples=100, derandomize=True)
@given(payload=_payloads, data=st.data())
def test_truncation_is_detected(payload, data):
    frame = encode_message(payload)
    cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
    with pytest.raises(NetworkError):
        decode_message(frame[:cut])


def test_non_object_payload_rejected():
    # A frame whose body is valid JSON but not an object is line noise.
    body = b"[1,2,3]"
    import struct
    import zlib

    frame = struct.pack("<II", len(body), zlib.crc32(body)) + body
    with pytest.raises(NetworkError):
        decode_message(frame)


def test_decode_errors_are_counted_by_reason():
    reg = MetricsRegistry()
    good = encode_message({"a": 1}, reg)
    assert decode_message(good, reg) == {"a": 1}
    frame = bytearray(good)
    frame[-1] ^= 0x01
    with pytest.raises(NetworkError):
        decode_message(bytes(frame), reg)
    with pytest.raises(NetworkError):
        decode_message(b"", reg)
    snap = reg.snapshot()["counters"]
    assert snap["netsim.transport.decode_errors{reason=checksum}"] == 1.0
    assert snap["netsim.transport.decode_errors{reason=truncated}"] == 1.0
    assert snap["netsim.transport.frames_encoded"] == 1.0
    assert snap["netsim.transport.frames_decoded"] == 1.0


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
def test_non_finite_literals_are_rejected_and_counted(literal):
    # Python's json writes and reads the first three, but JSON has no
    # such numbers; the last two are valid JSON that overflow a float.
    # An intact frame carrying one is refused under its own reason,
    # not handed on as a float.
    import zlib

    reg = MetricsRegistry()
    body = ('{"severity":%s}' % literal).encode("utf-8")
    frame = struct.pack("<II", len(body), zlib.crc32(body)) + body
    with pytest.raises(NetworkError, match="non-finite"):
        decode_message(frame, reg)
    snap = reg.snapshot()["counters"]
    assert snap["netsim.transport.decode_errors{reason=non_finite}"] == 1.0
    assert "netsim.transport.frames_decoded" not in snap


def test_header_size_unchanged():
    # The data-rate accounting (repro.hpc.datarates) assumes an 8-byte
    # frame header; fail loudly if the wire format drifts.
    assert _HEADER.size == 8
