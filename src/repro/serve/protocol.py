"""The small JSON-over-HTTP protocol between ``repro`` and the daemon.

One place defines what travels on the wire — routes, status codes, and
the HTTP framing helpers — so the asyncio daemon and the blocking
:mod:`http.client` client cannot drift apart.  The protocol is
deliberately tiny: JSON bodies, ``Connection: close``, no streaming.

Routes (all under :data:`API_PREFIX`):

====== ==================== ==========================================
GET    ``/v1/health``        liveness + protocol version
POST   ``/v1/campaigns``     submit a campaign; 200 done (store hit or
                             ``wait``), 202 queued, 429 queue full
GET    ``/v1/jobs``          every job this daemon has seen
GET    ``/v1/jobs/<id>``     one job, with its result when done
GET    ``/v1/stats``         scheduler counters, jobs, store root
POST   ``/v1/analyze``       model prediction (no fault injection)
====== ==================== ==========================================
"""

from __future__ import annotations

import json

PROTOCOL_VERSION = 1
API_PREFIX = "/v1"

#: Reason phrases for every status the daemon emits.
REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}

#: Largest request body the daemon will read (a printed-IR module of
#: every benchmark fits with orders of magnitude to spare).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Longest the daemon waits for a request's head and body; a client
#: that stalls longer is answered 408 and its connection closed.
READ_DEADLINE_SECONDS = 30.0


def error_body(message: str) -> dict:
    return {"error": message}


def encode_response(status: int, payload: dict) -> bytes:
    """One complete HTTP/1.1 response, JSON body, connection closed."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    )
    return head.encode("ascii") + body


def parse_request_head(head: bytes) -> tuple[str, str, dict[str, str]]:
    """Split a request head into (method, path, lowercase headers)."""
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise ValueError(f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _sep, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return method.upper(), target, headers


def content_length(headers: dict[str, str]) -> int:
    """The request's ``Content-Length`` (0 when absent).

    Raises ValueError unless the header is a non-negative decimal
    integer.
    """
    raw = headers.get("content-length", "0")
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"malformed Content-Length: {raw!r}")
    return int(raw)


def split_target(target: str) -> tuple[str, dict[str, str]]:
    """Split a request target into (path, query dict)."""
    path, _sep, raw_query = target.partition("?")
    query: dict[str, str] = {}
    if raw_query:
        for pair in raw_query.split("&"):
            name, _sep, value = pair.partition("=")
            if name:
                query[name] = value
    return path, query


def is_true(value: str | None) -> bool:
    """Loose truthiness for query parameters (``?wait=1``)."""
    return str(value).strip().lower() in {"1", "true", "yes", "on"}
