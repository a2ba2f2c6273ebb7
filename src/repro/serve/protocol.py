"""Minimal HTTP/1.1 framing + JSON query protocol for ``repro serve``.

Stdlib-only on purpose: the server's job is to turn socket bytes into
``(n, 6)`` bounds arrays and back, and a framework would dominate the
~20µs it takes :meth:`QueryEngine.evaluate_many` to answer a warm
request. Only the subset of HTTP the load harness and a curl user need is
implemented — content-length framing, keep-alive, JSON bodies.

``write_response`` is the publication sink of the serving layer: every
byte that leaves the process passes through it, which is why it is
declared in ``__flow_sinks__`` below. DP100 then proves that only
sanitized release data (loaded via ``repro.serve.cache.load_release``,
pure post-processing) can flow here — never the raw datasets that enter
through ``repro.data.io``.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.exceptions import ServeError

__flow_sinks__ = ("write_response:http-response",)

#: Largest request body the server will read (bytes).
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Largest single /query request (rows of the bounds array).
MAX_QUERIES_PER_REQUEST = 10_000

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class ProtocolError(ServeError):
    """A malformed or oversized request; carries the HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class HttpRequest:
    """One parsed request: start line, lowercase headers, raw body."""

    method: str
    target: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        """The body decoded as JSON (400 on anything unparsable)."""
        if not self.body:
            raise ProtocolError(400, "request body must be JSON, got none")
        try:
            return json.loads(self.body)
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ProtocolError(400, f"request body is not valid JSON: {error}")

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"


async def read_request(reader: asyncio.StreamReader) -> HttpRequest | None:
    """Parse one request off ``reader``; ``None`` on clean EOF.

    The header block is capped by the stream's own buffer limit (64 KiB
    by default) — an overlong one surfaces as 413 rather than an
    unbounded read.
    """
    try:
        raw = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError(400, "connection closed mid-request")
    except asyncio.LimitOverrunError:
        raise ProtocolError(413, "request header block too large")
    head, _, _ = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3:
        raise ProtocolError(400, f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise ProtocolError(400, "content-length is not an integer")
        if length < 0:
            raise ProtocolError(400, "content-length is negative")
        if length > MAX_BODY_BYTES:
            raise ProtocolError(
                413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"
            )
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise ProtocolError(400, "connection closed mid-body")
    return HttpRequest(method=method, target=target, headers=headers, body=body)


async def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: Any,
    content_type: str = "application/json",
) -> None:
    """Serialize + send one keep-alive response and drain the socket."""
    if isinstance(payload, (dict, list)):
        body = json.dumps(payload).encode()
    elif isinstance(payload, bytes):
        body = payload
    else:
        body = str(payload).encode()
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: keep-alive\r\n"
        f"\r\n"
    ).encode("latin-1")
    writer.write(head + body)
    await writer.drain()


def parse_query_request(
    payload: Any, shape: tuple[int, int, int]
) -> tuple[np.ndarray, str]:
    """Validate a ``POST /query`` body against the release shape.

    Returns the ``(n, 6)`` intp bounds array plus the aggregate
    (``"sum"`` or ``"average"``). Every element must be a JSON integer:
    a float, boolean or string is a 400, never cast to some other
    query. Bounds are checked against the shape here, vectorized, so
    ``evaluate_many`` only ever sees valid bounds.
    """
    if not isinstance(payload, dict):
        raise ProtocolError(400, "query payload must be a JSON object")
    aggregate = payload.get("aggregate", "sum")
    if aggregate not in ("sum", "average"):
        raise ProtocolError(
            400, f"aggregate must be 'sum' or 'average', got {aggregate!r}"
        )
    raw = payload.get("queries")
    if not isinstance(raw, list) or not raw:
        raise ProtocolError(400, "'queries' must be a non-empty list")
    if len(raw) > MAX_QUERIES_PER_REQUEST:
        raise ProtocolError(
            413,
            f"{len(raw)} queries exceed the per-request cap of "
            f"{MAX_QUERIES_PER_REQUEST}",
        )
    try:
        # Exact element types: bool subclasses int, and numpy would cast
        # a float or a numeric string to some other query.
        if {type(v) for row in raw for v in row} != {int}:
            raise TypeError("non-integer bound")
        bounds = np.array(raw, dtype=np.intp)
    except (TypeError, ValueError, OverflowError):
        raise ProtocolError(
            400, "each query must be six integers [x0, x1, y0, y1, t0, t1]"
        )
    if bounds.ndim != 2 or bounds.shape[1] != 6:
        raise ProtocolError(
            400,
            f"each query must be six integers [x0, x1, y0, y1, t0, t1]; "
            f"got array shape {bounds.shape}",
        )
    lo = bounds[:, 0::2]
    hi = bounds[:, 1::2]
    limit = np.asarray(shape, dtype=np.intp)
    bad = (lo < 0).any(axis=1) | (lo >= hi).any(axis=1) | (hi > limit).any(axis=1)
    if bad.any():
        index = int(np.flatnonzero(bad)[0])
        raise ProtocolError(
            400,
            f"query {index} with bounds {bounds[index].tolist()} invalid "
            f"for shape {tuple(shape)}",
        )
    return bounds, aggregate


__all__ = [
    "HttpRequest",
    "MAX_BODY_BYTES",
    "MAX_QUERIES_PER_REQUEST",
    "ProtocolError",
    "parse_query_request",
    "read_request",
    "write_response",
]
