import pytest

from repro.common.errors import NetworkError, SchedulingError
from repro.netsim import EventKernel, decode_message, encode_message


# -- kernel ----------------------------------------------------------------

def test_events_run_in_time_order():
    k = EventKernel()
    log = []
    k.schedule(2.0, lambda: log.append("b"))
    k.schedule(1.0, lambda: log.append("a"))
    k.schedule(3.0, lambda: log.append("c"))
    k.run()
    assert log == ["a", "b", "c"]
    assert k.now() == 3.0


def test_same_time_fifo():
    k = EventKernel()
    log = []
    k.schedule(1.0, lambda: log.append(1))
    k.schedule(1.0, lambda: log.append(2))
    k.run()
    assert log == [1, 2]


def test_negative_delay_rejected():
    with pytest.raises(SchedulingError):
        EventKernel().schedule(-1.0, lambda: None)


def test_run_until_stops_at_boundary():
    k = EventKernel()
    log = []
    k.schedule(1.0, lambda: log.append("early"))
    k.schedule(5.0, lambda: log.append("late"))
    executed = k.run_until(2.0)
    assert executed == 1
    assert log == ["early"]
    assert k.now() == 2.0
    assert k.pending == 1


def test_run_until_boundary_is_inclusive():
    k = EventKernel()
    log = []
    k.schedule(10.0, lambda: log.append("at"))
    k.schedule(10.000001, lambda: log.append("after"))
    assert k.run_until(10.0) == 1
    assert log == ["at"]
    assert k.pending == 1
    assert k.now() == 10.0


def test_schedule_after_clock_jump_fires_before_later_pending_event():
    # run_until jumps the clock past idle time; a schedule made there
    # still dispatches before an earlier-queued, later-timed event.
    k = EventKernel()
    log = []
    k.schedule(100.0, lambda: log.append("far"))
    k.run_until(50.0)
    k.schedule(10.0, lambda: log.append("near"))   # t=60 < 100
    k.run()
    assert log == ["near", "far"]


def test_sparse_far_future_events_dispatch_in_order():
    k = EventKernel()
    log = []
    for t in (100000.0, 10.0, 5000.0, 0.5, 300.0):
        k.schedule(t, lambda t=t: log.append(t))
    k.run()
    assert log == sorted(log)
    assert k.now() == 100000.0


def test_pending_after_run_until():
    k = EventKernel()
    for i in range(50):
        k.schedule(float(i), lambda: None)
    assert k.run_until(25.0) == 26
    assert k.pending == 24


def test_run_until_past_rejected():
    k = EventKernel(start=10.0)
    with pytest.raises(SchedulingError):
        k.run_until(5.0)


def test_cancel_prevents_execution():
    k = EventKernel()
    log = []
    eid = k.schedule(1.0, lambda: log.append("x"))
    k.cancel(eid)
    k.run()
    assert log == []


def test_events_can_schedule_events():
    k = EventKernel()
    log = []

    def first():
        log.append(("first", k.now()))
        k.schedule(1.0, lambda: log.append(("second", k.now())))

    k.schedule(1.0, first)
    k.run()
    assert log == [("first", 1.0), ("second", 2.0)]


def test_runaway_schedule_bounded():
    k = EventKernel()

    def loop():
        k.schedule(0.1, loop)

    k.schedule(0.1, loop)
    with pytest.raises(SchedulingError):
        k.run(max_events=100)


def test_schedule_at_absolute():
    k = EventKernel(start=5.0)
    log = []
    k.schedule_at(7.5, lambda: log.append(k.now()))
    k.run()
    assert log == [7.5]


# -- transport ----------------------------------------------------------------

def test_message_roundtrip():
    payload = {"a": 1, "b": [1, 2, 3], "c": "text"}
    assert decode_message(encode_message(payload)) == payload


def test_unencodable_payload_rejected():
    with pytest.raises(NetworkError):
        encode_message({"x": object()})


def test_truncated_frame_rejected():
    frame = encode_message({"a": 1})
    with pytest.raises(NetworkError):
        decode_message(frame[:2])
    with pytest.raises(NetworkError):
        decode_message(frame[:-1])


def test_corrupt_body_rejected():
    frame = bytearray(encode_message({"a": 1}))
    frame[5] ^= 0xFF
    with pytest.raises(NetworkError):
        decode_message(bytes(frame))


def test_non_object_payload_rejected():
    import json
    import struct
    import zlib

    body = json.dumps([1, 2]).encode()
    frame = struct.pack("<II", len(body), zlib.crc32(body)) + body
    with pytest.raises(NetworkError):
        decode_message(frame)


def test_any_single_bitflip_detected():
    """CRC32 catches every single-bit corruption of a frame."""
    frame = bytearray(encode_message({"belief": 0.75, "id": 42}))
    for byte_idx in range(len(frame)):
        corrupted = bytearray(frame)
        corrupted[byte_idx] ^= 0x10
        with pytest.raises(NetworkError):
            decode_message(bytes(corrupted))
