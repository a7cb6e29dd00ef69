"""HTTP round trips through the stdlib gateway server."""

from __future__ import annotations

import json
import socket
import sqlite3
import threading
import urllib.error
import urllib.request

import pytest

from repro.gateway.server import MAX_BODY_BYTES, GatewayHTTPServer
from repro.protocol.wire import encode_report


@pytest.fixture
def http_fleet(fleet, gateway):
    server = GatewayHTTPServer(("127.0.0.1", 0), gateway)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield fleet, gateway, f"http://127.0.0.1:{port}"
    server.shutdown()
    server.server_close()


def _raw_post_status(base: str, content_length: str) -> int:
    """POST /reports over a raw socket with a hand-written
    Content-Length and no body; returns the response status code."""
    host, port = base.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(
            b"POST /reports HTTP/1.1\r\nHost: gateway\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {content_length}\r\n\r\n".encode()
        )
        status_line = sock.makefile("rb").readline()
    return int(status_line.split()[1])


def _get(base: str, path: str):
    with urllib.request.urlopen(base + path) as resp:
        return resp.status, json.loads(resp.read())


def test_get_routes_round_trip(http_fleet):
    fleet, gateway, base = http_fleet
    model, _, reports, _ = fleet
    first = sorted({r.sensed_object_id for r in reports})[0]
    model.post_reports([r for r in reports if r.sensed_object_id == first][:4])

    status, health = _get(base, "/fleet/health")
    assert status == 200 and set(health) == {"as_of", "diagnostic", "prognostic"}
    # The HTTP body is exactly the gateway's canonical rendering.
    with urllib.request.urlopen(base + "/fleet/health") as resp:
        assert resp.read().decode() == gateway.fleet_health_json()

    status, page = _get(base, "/objects?limit=3")
    assert status == 200 and len(page["items"]) == 3 and page["nextCursor"]

    status, one = _get(base, f"/objects/{first}")
    assert status == 200 and one["id"] == first

    status, slice_doc = _get(base, f"/objects/{first}/health")
    assert status == 200 and slice_doc["object"] == first

    status, series = _get(base, f"/objects/{first}/measurements?limit=2")
    assert status == 200 and len(series["items"]) == 2

    status, logs = _get(base, "/reports?limit=5")
    assert status == 200 and len(logs["items"]) == 5
    status, logs2 = _get(base, f"/reports?limit=5&cursor={logs['nextCursor']}")
    assert status == 200
    assert logs2["items"][0]["intakeSeq"] == logs["items"][-1]["intakeSeq"] + 1

    status, alarms = _get(base, "/alarms?threshold=0.4")
    assert status == 200 and "alarms" in alarms

    status, stats = _get(base, "/stats")
    assert status == 200 and stats["watermark"] == len(reports)


def test_error_statuses(http_fleet):
    _, _, base = http_fleet
    for path, code in (
        ("/objects/obj:nope", 404),
        ("/no/such/route", 404),
        ("/reports?cursor=garbage", 400),
        ("/reports?limit=zero", 400),
        ("/alarms?threshold=hot", 400),
    ):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(base, path)
        assert err.value.code == code, path
        assert "error" in json.loads(err.value.read())


@pytest.mark.parametrize("cursor", [
    "k99999999999999999999999.1",
    "k1.99999999999999999999999",
    "k-9223372036854775809.1",
    "k1.9223372036854775808",
])
def test_out_of_range_cursor_is_a_400_and_the_server_keeps_serving(http_fleet, cursor):
    """A cursor coordinate that no SQLite INTEGER can hold, in the key
    part or the seq part, is the client's error, not a dropped
    connection."""
    _, _, base = http_fleet
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(base, f"/reports?cursor={cursor}")
    assert err.value.code == 400
    assert "out of range" in json.loads(err.value.read())["error"]
    status, page = _get(base, "/reports?cursor=k9223372036854775807.9223372036854775807")
    assert status == 200 and page["items"] == []


@pytest.mark.parametrize("threshold", ["nan", "NaN", "inf", "-inf", "infinity"])
def test_non_finite_threshold_is_a_400_and_caches_nothing(http_fleet, threshold):
    """``nan`` compares unequal to itself, so each request would make a
    new cache slot, and it would pass every severity as "no threshold"."""
    _, gateway, base = http_fleet
    before = len(gateway.cache)
    for _ in range(3):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(base, f"/alarms?threshold={threshold}")
        assert err.value.code == 400
        assert "finite" in json.loads(err.value.read())["error"]
    assert len(gateway.cache) == before


def test_system_error_is_a_500_and_the_server_keeps_serving(http_fleet, tmp_path):
    # A log row that is valid JSON but no report: decoding it raises
    # an MprosError that is not the client's fault.
    with sqlite3.connect(tmp_path / "shard-0.sqlite") as conn:
        conn.execute(
            "UPDATE report_log SET payload = '[1, 2]' WHERE seq = "
            "(SELECT MIN(seq) FROM report_log)"
        )
    _, _, base = http_fleet
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(base, "/reports")
    assert err.value.code == 500
    assert set(json.loads(err.value.read())) == {"error"}
    status, page = _get(base, "/objects")
    assert status == 200 and page["items"]


def test_serve_handles_bounded_requests_then_returns(fleet, gateway):
    """serve(max_requests=N) answers N requests and exits — the shape
    the CLI smoke path and CI use."""
    import socket

    from repro.gateway.server import serve

    # Reserve an ephemeral port for the bounded server to bind.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    results = []

    def client():
        for _ in range(50):  # the server thread binds asynchronously
            try:
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/stats"
                ) as resp:
                    results.append(resp.status)
                return
            except OSError:
                threading.Event().wait(0.05)

    t = threading.Thread(target=client, daemon=True)
    t.start()
    serve(gateway, "127.0.0.1", port, max_requests=1)
    t.join(timeout=10)
    assert results == [200]


def test_bounded_serve_returns_only_after_its_last_answer(fleet, gateway):
    """A bounded run's last request may still be rendering when the
    accept loop ends; serve() must wait for it, or a process exiting
    next cuts the answer off."""
    server = GatewayHTTPServer(("127.0.0.1", 0), gateway)
    port = server.server_address[1]
    answered = threading.Event()
    render = gateway.fleet_health_json

    def slow_fleet_health_json(*args, **kwargs):
        threading.Event().wait(0.3)
        try:
            return render(*args, **kwargs)
        finally:
            answered.set()

    gateway.fleet_health_json = slow_fleet_health_json
    results = []

    def client():
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/fleet/health", timeout=10
        ) as resp:
            results.append(resp.status)

    t = threading.Thread(target=client, daemon=True)
    t.start()
    try:
        server.serve_requests(1)
    finally:
        server.server_close()
    assert answered.is_set()
    t.join(timeout=10)
    assert not t.is_alive()
    assert results == [200]


def test_bulk_post_writes_through_router(http_fleet):
    fleet, gateway, base = http_fleet
    _, pdme, reports, ids = fleet
    fresh = reports[0].__class__(
        knowledge_source_id="ks:http",
        sensed_object_id=reports[0].sensed_object_id,
        machine_condition_id="mc:oil-contamination",
        severity=0.8,
        belief=0.7,
        timestamp=88888.0,
        dc_id="dc:http",
    )
    body = json.dumps(
        {"reports": [encode_report(fresh)], "reportIds": ["dc:http#1"]}
    ).encode()
    req = urllib.request.Request(base + "/reports", data=body, method="POST")
    with urllib.request.urlopen(req) as resp:
        assert json.loads(resp.read()) == {"written": 1}
    # A replay of the same id is absorbed (exactly-once).
    with urllib.request.urlopen(
        urllib.request.Request(base + "/reports", data=body, method="POST")
    ) as resp:
        assert json.loads(resp.read()) == {"written": 0}

    bad = urllib.request.Request(
        base + "/reports", data=b'{"nope": 1}', method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(bad)
    assert err.value.code == 400


@pytest.mark.parametrize("report_ids", [
    7,
    [[1]],
    [{"a": 1}],
    "dc:x#1",
    ["dc:x#1", "dc:x#2", "dc:x#3"],
], ids=["int", "nested-list", "object", "string", "three-for-two"])
def test_malformed_report_ids_are_a_400_with_nothing_written(http_fleet, report_ids):
    """``reportIds`` must be absent, null, or one string-or-null per
    report: any other shape is the client's error, answered before the
    router stamps, routes or writes anything."""
    fleet, gateway, base = http_fleet
    _, pdme, reports, _ = fleet
    before = (pdme.report_count, pdme.intake_watermark, pdme.as_of)
    fresh = [r.with_timestamp(99999.0 + i) for i, r in enumerate(reports[:2])]
    body = json.dumps(
        {"reports": [encode_report(r) for r in fresh], "reportIds": report_ids}
    ).encode()
    req = urllib.request.Request(base + "/reports", data=body, method="POST")
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(req)
    assert err.value.code == 400
    assert "reportIds" in json.loads(err.value.read())["error"]
    assert (pdme.report_count, pdme.intake_watermark, pdme.as_of) == before
    assert _get(base, "/stats")[0] == 200


@pytest.mark.parametrize("reports", ["abc", [1], {"a": 1}, None])
def test_reports_that_are_not_a_list_of_objects_are_a_400(http_fleet, reports):
    """Each entry of ``reports`` must be a JSON object: anything else is
    a 400, not a dropped connection."""
    fleet, _, base = http_fleet
    _, pdme, _, _ = fleet
    before = (pdme.report_count, pdme.intake_watermark)
    body = json.dumps({"reports": reports}).encode()
    req = urllib.request.Request(base + "/reports", data=body, method="POST")
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(req)
    assert err.value.code == 400
    assert (pdme.report_count, pdme.intake_watermark) == before


@pytest.mark.parametrize("content_length", ["abc", "-1", "1.5", ""])
def test_bad_content_length_is_a_400(http_fleet, content_length):
    _, _, base = http_fleet
    assert _raw_post_status(base, content_length) == 400


def test_oversized_body_is_a_413_without_reading_it(http_fleet):
    _, _, base = http_fleet
    assert _raw_post_status(base, str(MAX_BODY_BYTES + 1)) == 413
    # The server is still serving afterwards.
    assert _get(base, "/stats")[0] == 200
