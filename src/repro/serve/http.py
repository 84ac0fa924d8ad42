"""A deliberately small HTTP/1.1 layer over ``asyncio`` streams.

``repro serve`` speaks just enough HTTP for its four endpoints — no
third-party framework, no stdlib ``http.server`` (it is thread-per-
connection and cannot stream from an event loop). One request per
connection: every response carries ``Connection: close``, which keeps the
parser trivial and makes NDJSON streaming natural (the stream ends when
the socket closes — any HTTP client can consume it).

The module knows nothing about jobs: it parses :class:`Request` objects,
and writes JSON or NDJSON responses through :class:`Responder`. Routing
lives in :mod:`repro.serve.app`.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Optional

from repro.serve.protocol import ServeError
from repro.util.counters import Counters

#: Refuse absurd request bodies before buffering them (1 MiB is roomy for
#: a sweep spec; a million-point sweep is a workloads list, not a payload).
MAX_BODY_BYTES = 1 << 20
MAX_HEADER_BYTES = 64 * 1024

_REASONS = {200: "OK", 201: "Created", 202: "Accepted",
            400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 408: "Request Timeout",
            413: "Payload Too Large", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}


class ProtocolError(ServeError):
    """The request never parsed as HTTP (or blew a size limit)."""

    code = "bad-request"
    status = 400


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> object:
        """Decode the body as JSON, as a typed error on failure."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}",
                                code="bad-json") from None


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request off the wire; None on a cleanly closed socket.

    Raises :class:`ProtocolError` on garbage — the caller answers 400 and
    closes, which is all a one-request-per-connection server owes.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # client connected and went away: not an error
        raise ProtocolError("truncated request head") from None
    except asyncio.LimitOverrunError:
        raise ProtocolError("request head too large") from None
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError("request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"malformed request line: {lines[0]!r}")
    method, path, _version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise ProtocolError("malformed Content-Length") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise ProtocolError("request body too large",
                                code="body-too-large")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise ProtocolError("truncated request body") from None
    return Request(method=method, path=path, headers=headers, body=body)


class Responder:
    """Writes exactly one response (JSON document or NDJSON stream)."""

    def __init__(self, writer: asyncio.StreamWriter,
                 counters: Optional[Counters] = None) -> None:
        self.writer = writer
        self.counters = counters if counters is not None else Counters()
        self.started = False

    def _head(self, status: int, content_type: str) -> bytes:
        self.started = True
        return (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Connection: close\r\n\r\n").encode("latin-1")

    async def send_json(self, status: int, payload: object,
                        headers: Optional[dict[str, str]] = None) -> None:
        """One complete JSON response."""
        body = (json.dumps(payload) + "\n").encode("utf-8")
        extra = "".join(f"{name}: {value}\r\n"
                        for name, value in (headers or {}).items())
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{extra}"
                f"Connection: close\r\n\r\n").encode("latin-1")
        self.started = True
        self.writer.write(head + body)
        await self.writer.drain()

    async def send_error(self, error: ServeError) -> None:
        headers = None
        retry_after = getattr(error, "retry_after_s", None)
        if retry_after is not None:
            headers = {"Retry-After": str(int(retry_after))}
        await self.send_json(error.status, error.to_json(), headers=headers)

    async def start_stream(self, status: int = 200) -> None:
        """Open an NDJSON stream (ends when the connection closes)."""
        self.writer.write(self._head(status, "application/x-ndjson"))
        await self.writer.drain()

    async def send_line(self, event: dict) -> None:
        """One NDJSON line, with backpressure accounting.

        ``drain()`` suspends when the client reads slower than points
        land; a write that finds the previous one still buffered counts a
        ``serve.stream_stalls`` before waiting it out.
        """
        transport = self.writer.transport
        if transport is not None and transport.get_write_buffer_size() > 0:
            self.counters.add("serve.stream_stalls")
        self.writer.write((json.dumps(event) + "\n").encode("utf-8"))
        await self.writer.drain()
