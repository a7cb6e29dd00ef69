"""Byte-level message encoding for the simulated ship network.

Messages are JSON objects framed as UTF-8 bytes with a 4-byte length
prefix and a CRC32 — trivially inspectable, byte-countable (for the
data-rate accounting in :mod:`repro.hpc.datarates`), and corruption-
*detectable*: a flipped bit anywhere in the frame is caught by the
checksum instead of silently altering a report's contents.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from typing import Any

from repro.common.errors import NetworkError
from repro.obs.registry import MetricsRegistry, default_registry

#: Maximum frame size; a shipboard report should never be megabytes.
MAX_FRAME = 16 * 1024 * 1024

_HEADER = struct.Struct("<II")  # body length, CRC32(body)


class _NonFinite(ValueError):
    """A ``NaN``/``Infinity`` literal, or a number too large for a float,
    in a frame body."""


def _reject_constant(name: str) -> Any:
    raise _NonFinite(name)


def _finite_float(text: str) -> float:
    # ``1e400`` is valid JSON that ``float`` reads as infinity.
    value = float(text)
    if math.isfinite(value):
        return value
    raise _NonFinite(text)


#: Built once: ``json.loads`` with a keyword builds a decoder per call.
_DECODER = json.JSONDecoder(
    parse_float=_finite_float, parse_constant=_reject_constant
)


def encode_message(
    payload: dict[str, Any], metrics: MetricsRegistry | None = None
) -> bytes:
    """Frame a JSON-compatible dict as length+CRC-prefixed bytes."""
    reg = metrics if metrics is not None else default_registry()
    try:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise NetworkError(f"payload is not JSON-encodable: {exc}") from exc
    if len(body) > MAX_FRAME:
        raise NetworkError(f"frame too large ({len(body)} bytes)")
    reg.counter("netsim.transport.frames_encoded").inc()
    reg.counter("netsim.transport.bytes_encoded").inc(_HEADER.size + len(body))
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def decode_message(
    frame: bytes, metrics: MetricsRegistry | None = None
) -> dict[str, Any]:
    """Decode a frame produced by :func:`encode_message`.

    Raises :class:`NetworkError` on truncation, checksum mismatch, or
    malformed content — the receiver treats all of these as line noise.
    A ``NaN`` or ``Infinity`` literal is malformed content: JSON has
    no such numbers, and no valid message carries one.  Neither does a
    number that overflows a float, such as ``1e400``.
    """
    reg = metrics if metrics is not None else default_registry()

    def reject(reason: str, detail: str) -> NetworkError:
        reg.counter("netsim.transport.decode_errors", reason=reason).inc()
        return NetworkError(detail)

    if len(frame) < _HEADER.size:
        raise reject("truncated", "truncated frame (incomplete header)")
    length, crc = _HEADER.unpack_from(frame, 0)
    body = frame[_HEADER.size :]
    if len(body) != length:
        raise reject(
            "length", f"frame length mismatch: header {length}, body {len(body)}"
        )
    if zlib.crc32(body) != crc:
        raise reject("checksum", "frame checksum mismatch (corrupted in transit)")
    try:
        payload = _DECODER.decode(body.decode("utf-8"))
    except _NonFinite as exc:
        raise reject("non_finite", f"frame carries a non-finite number: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise reject("json", f"corrupt frame: {exc}") from exc
    if not isinstance(payload, dict):
        raise reject("structure", "frame payload must be a JSON object")
    reg.counter("netsim.transport.frames_decoded").inc()
    return payload
