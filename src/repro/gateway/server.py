"""A minimal stdlib HTTP front end for :class:`FleetGateway`.

One process, ``ThreadingHTTPServer`` — each request runs on its own
thread, which is exactly the concurrency shape the gateway is built
for: cached reads are dict hits under the GIL, log pages go through
per-thread read-only SQLite connections (:mod:`repro.gateway.replica`),
and bulk writes funnel through the single owning router.  No external
web framework; the serving story has to hold on the embedded targets
the paper cares about.

Routes (all responses canonical JSON):

====================================  =========================================
``GET /fleet/health``                 the complete fused model document
``GET /objects``                      managed objects (``type``, ``cursor``,
                                      ``limit`` query params)
``GET /objects/<id>``                 one managed object
``GET /objects/<id>/health``          fused health slice (part-of closure)
``GET /objects/<id>/measurements``    condition series (``cursor``, ``limit``)
``GET /reports``                      durable log pages (``cursor``, ``limit``)
``GET /alarms``                       raised alarms (``threshold``)
``GET /stats``                        gateway serving stats
``POST /reports``                     bulk write ``{"reports": [...],
                                      "reportIds": [...]}`` (ids optional)
====================================  =========================================

Errors render as ``{"error": ...}`` with 400 (gateway misuse: bad
cursor, bad limit, malformed body or ``Content-Length``), 404 (unknown
path or object), 413 (a body over :data:`MAX_BODY_BYTES`) or 500 (any
other :class:`MprosError` the system raises, such as a corrupt log row
or a crashed shard); the connection and the server keep serving.
"""

from __future__ import annotations

import json
import math
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.common.errors import GatewayError, MprosError
from repro.gateway.service import FleetGateway
from repro.protocol.canonical import canonical_dumps
from repro.protocol.wire import decode_report

#: Largest ``POST`` body the server reads; longer ones are answered 413
#: without reading them.
MAX_BODY_BYTES = 16 * 1024 * 1024


class GatewayHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the gateway for its handlers."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], gateway: FleetGateway) -> None:
        super().__init__(address, _Handler)
        self.gateway = gateway

    def serve_requests(self, max_requests: int | None) -> None:
        """Serve forever, or answer ``max_requests`` requests.

        A bounded run makes its handler threads non-daemon, so
        :meth:`server_close` waits for the last answers instead of
        letting a process that exits next cut them off.
        """
        if max_requests is None:
            self.serve_forever()
            return
        self.daemon_threads = False
        for _ in range(max_requests):
            self.handle_request()


class _Handler(BaseHTTPRequestHandler):
    server: GatewayHTTPServer

    # The default handler logs every request to stderr; the gateway's
    # own metrics cover that without the I/O on the hot path.
    def log_message(self, format: str, *args) -> None:
        pass

    def _send(self, status: int, body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _error(self, status: int, message: str) -> None:
        self._send(status, canonical_dumps({"error": message}))

    def do_GET(self) -> None:  # noqa: N802 (http.server contract)
        try:
            self._send(200, self._route_get())
        except GatewayError as exc:
            self._error(400, str(exc))
        except MprosError as exc:
            self._error(500, str(exc))
        except _NotFound as exc:
            self._error(404, str(exc))

    def do_POST(self) -> None:  # noqa: N802 (http.server contract)
        try:
            self._send(200, self._route_post())
        except GatewayError as exc:
            self._error(400, str(exc))
        except MprosError as exc:
            self._error(500, str(exc))
        except _NotFound as exc:
            self._error(404, str(exc))
        except _TooLarge as exc:
            self._error(413, str(exc))

    # -- routing ----------------------------------------------------------
    def _route_get(self) -> str:
        gw = self.server.gateway
        url = urlparse(self.path)
        params = parse_qs(url.query)
        parts = [p for p in url.path.split("/") if p]
        cursor = _param(params, "cursor")
        limit = _int_param(params, "limit")

        if parts == ["fleet", "health"]:
            return gw.fleet_health_json()
        if parts == ["alarms"]:
            threshold = _float_param(params, "threshold", 0.5)
            return gw.alarms_json(threshold)
        if parts == ["reports"]:
            return canonical_dumps(gw.reports(cursor, limit).to_json())
        if parts == ["stats"]:
            return canonical_dumps(gw.stats())
        if parts == ["objects"]:
            page = gw.managed_objects(
                type_name=_param(params, "type"),
                kind_of=_param(params, "kind"),
                after=cursor,
                limit=limit,
            )
            return canonical_dumps(page.to_json())
        if len(parts) >= 2 and parts[0] == "objects":
            object_id = parts[1]
            try:
                if len(parts) == 2:
                    return gw.managed_object_json(object_id)
                if parts[2] == "health":
                    return gw.health_json(object_id)
                if parts[2] == "measurements":
                    return canonical_dumps(
                        gw.measurements(object_id, cursor, limit).to_json()
                    )
            except GatewayError as exc:
                # Unknown object ids are 404s, not client errors.
                if "no managed object" in str(exc):
                    raise _NotFound(str(exc)) from exc
                raise
        raise _NotFound(f"no route for {url.path}")

    def _route_post(self) -> str:
        gw = self.server.gateway
        if urlparse(self.path).path != "/reports":
            raise _NotFound(f"no POST route for {self.path}")
        raw_length = self.headers.get("Content-Length", "0")
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise GatewayError(
                f"Content-Length {raw_length!r} is not a non-negative integer"
            )
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            raise _TooLarge(
                f"body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        try:
            body = json.loads(self.rfile.read(length) or b"{}")
            items = body["reports"]
        except (ValueError, KeyError, TypeError) as exc:
            raise GatewayError(f"malformed bulk report body: {exc}") from exc
        if type(items) is not list or any(type(item) is not dict for item in items):
            raise GatewayError(
                "malformed bulk report body: reports must be a list of objects"
            )
        ids = body.get("reportIds")
        if ids is not None and not (
            type(ids) is list
            and len(ids) == len(items)
            and all(rid is None or type(rid) is str for rid in ids)
        ):
            raise GatewayError(
                "malformed bulk report body: reportIds must be null or a "
                "list of strings or nulls, one per report"
            )
        try:
            reports = [decode_report(item) for item in items]
        except MprosError as exc:
            raise GatewayError(f"malformed bulk report body: {exc}") from exc
        written = gw.post_reports(reports, ids)
        return canonical_dumps({"written": written})


class _NotFound(Exception):
    pass


class _TooLarge(Exception):
    pass


def _param(params: dict, name: str) -> str | None:
    values = params.get(name)
    return values[0] if values else None


def _int_param(params: dict, name: str) -> int | None:
    raw = _param(params, name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise GatewayError(f"query param {name}={raw!r} is not an integer") from exc


def _float_param(params: dict, name: str, default: float) -> float:
    raw = _param(params, name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError as exc:
        raise GatewayError(f"query param {name}={raw!r} is not a number") from exc
    if not math.isfinite(value):
        raise GatewayError(f"query param {name}={raw!r} is not a finite number")
    return value


def serve(
    gateway: FleetGateway,
    host: str = "127.0.0.1",
    port: int = 8787,
    max_requests: int | None = None,
) -> GatewayHTTPServer:
    """Serve ``gateway`` over HTTP; blocks unless ``max_requests`` set.

    ``max_requests`` bounds the run for tests and demos (the server
    handles that many requests, then returns).  Pass ``port=0`` to bind
    an ephemeral port (read it back from ``server.server_address``).
    """
    server = GatewayHTTPServer((host, port), gateway)
    try:
        server.serve_requests(max_requests)
    finally:
        server.server_close()
    return server
