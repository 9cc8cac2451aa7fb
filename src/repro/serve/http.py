"""Minimal HTTP/1.1 layer for the availability service (stdlib only).

One parse/serialize path serves both fabrics:

* :func:`serve_http` binds a real ``asyncio.start_server`` socket and
  points each connection at :func:`handle_connection`;
* :class:`MemoryHttpClient` feeds raw request bytes through the **same**
  :func:`handle_connection` via in-process streams — CI load tests drive
  thousands of requests through the genuine HTTP surface (request-line
  parsing, header handling, keep-alive, JSON bodies) without opening a
  socket, on the virtual clock.

The protocol subset is deliberately small — GET/POST, JSON bodies,
``Content-Length`` framing, keep-alive — because the service only speaks
JSON and the point is serving §3.3 queries, not re-growing a web server.

Each request head is read by one ``readuntil(b"\r\n\r\n")``, so a
keep-alive stream is consumed one head at a time.  Lines end in CRLF only
(a bare LF is a 400).  The request line may take 8,192 bytes with its
CRLF (else 400); head and body may each take :data:`MAX_REQUEST_BYTES`,
the ``limit`` of every stream reader built here (else 413).
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple

from .service import AvailabilityService

__all__ = [
    "MAX_REQUEST_BYTES",
    "handle_connection",
    "serve_http",
    "MemoryHttpClient",
]

#: Request-line + headers + body ceiling; a datagram-sized service has no
#: business accepting megabyte uploads.
MAX_REQUEST_BYTES = 256 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


#: ``json.dumps(payload, sort_keys=True)`` without building the encoder
#: on every call: the same bytes.
_encode_json = json.JSONEncoder(sort_keys=True).encode


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Parse one request; None on clean EOF before a request line."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        head = exc.partial  # the stream ended before the blank line
    except asyncio.LimitOverrunError:
        raise _HttpError(413, "headers too large")
    except ConnectionError:
        return None
    if not head:
        return None
    text = head.decode("latin-1")
    if text.count("\n") != text.count("\r\n"):
        raise _HttpError(400, "line endings must be CRLF")
    # Each line as sent, less its CRLF; a head cut short by EOF may end in
    # a line that had none.
    lines = text.split("\r\n")
    last = len(lines) - 1
    if len(lines[0]) + 2 * (last > 0) > 8192:
        raise _HttpError(400, "request line too long")
    parts = lines[0].strip().split()
    if len(parts) != 3:
        raise _HttpError(400, "malformed request line")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise _HttpError(400, f"unsupported protocol {version!r}")
    if len(head) > MAX_REQUEST_BYTES:
        raise _HttpError(413, "headers too large")
    headers: Dict[str, str] = {}
    for index in range(1, last + 1):
        line = lines[index]
        if not line:
            break
        name, sep, value = line.partition(":")
        if not sep:
            raw = (line + "\r\n" if index < last else line).encode("latin-1")
            raise _HttpError(400, f"malformed header line {raw!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            length = int(length_header)
        except ValueError:
            raise _HttpError(400, "malformed Content-Length")
        if length < 0 or length > MAX_REQUEST_BYTES:
            raise _HttpError(413, "body too large")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise _HttpError(400, "body truncated")
    return method, target, headers, body


def _header_lines(headers: Dict[str, str]) -> str:
    return "".join([f"{name}: {value}\r\n" for name, value in headers.items()])


def _render(
    status: int,
    payload,
    extra_headers: Dict[str, str],
    *,
    keep_alive: bool,
) -> bytes:
    # dict payloads render as JSON; str payloads pass through as
    # text/plain (the Prometheus exposition format on ``/metrics``).
    if isinstance(payload, str):
        body = payload.encode()
        content_type = "text/plain; version=0.0.4"
    else:
        body = _encode_json(payload).encode()
        content_type = "application/json"
    extra = _header_lines(extra_headers) if extra_headers else ""
    return (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"{extra}\r\n"
    ).encode() + body


async def handle_connection(
    service: AvailabilityService,
    reader: asyncio.StreamReader,
    writer,
    *,
    client: str = "",
) -> None:
    """Serve requests on one connection until EOF or ``Connection: close``.

    *client* is the rate-limiting identity; when empty it is taken from
    the transport's peer address (real sockets) or left anonymous.
    """
    if not client:
        peer = writer.get_extra_info("peername")
        client = peer[0] if isinstance(peer, tuple) else "anonymous"
    try:
        while True:
            try:
                request = await _read_request(reader)
            except _HttpError as exc:
                status, payload, extra = exc.status, {"error": str(exc)}, {}
                keep_alive = False
            else:
                if request is None:
                    break
                method, target, headers, body_bytes = request
                # An explicit client identity beats the transport address:
                # a load driver runs many logical clients over one fabric.
                identity = headers.get("x-client-id", client)
                body: Optional[dict] = None
                if body_bytes:
                    try:
                        body = json.loads(body_bytes)
                    except json.JSONDecodeError:
                        body = None  # endpoints reject with a 400 body
                try:
                    status, payload, extra = await service.handle(
                        method, target, body, identity, headers
                    )
                except Exception:  # noqa: BLE001 — a service bug is a 500,
                    # counted and visible, never a dropped connection.
                    status, payload, extra = 500, {"error": "internal"}, {}
                keep_alive = headers.get("connection", "").lower() != "close"
            writer.write(
                _render(status, payload, extra, keep_alive=keep_alive)
            )
            await writer.drain()
            if not keep_alive:
                break
    finally:
        try:
            writer.close()
        except RuntimeError:
            # The event loop closed under us (daemon shutdown while a
            # client was mid-request); the transport is already gone.
            return
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def serve_http(
    service: AvailabilityService, host: str = "127.0.0.1", port: int = 0
):
    """Bind a real HTTP server for *service*; returns the asyncio server."""

    async def on_connection(reader, writer):
        await handle_connection(service, reader, writer)

    return await asyncio.start_server(
        on_connection, host, port, limit=MAX_REQUEST_BYTES
    )


class _MemoryWriter:
    """Just enough of ``StreamWriter`` to capture a response in memory."""

    def __init__(self) -> None:
        self.buffer = bytearray()

    def write(self, data: bytes) -> None:
        self.buffer.extend(data)

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass

    def get_extra_info(self, name, default=None):
        return default


class MemoryHttpClient:
    """Drives the real HTTP surface in-process (no sockets).

    Each request is serialized to raw HTTP/1.1 bytes, fed through
    :func:`handle_connection` via an ``asyncio.StreamReader``, and the
    response bytes are parsed back — so the memory fabric exercises the
    exact request path a socket does, deterministically.
    """

    def __init__(self, service: AvailabilityService, *, client: str = "mem-client") -> None:
        self.service = service
        self.client = client

    async def request(
        self,
        method: str,
        target: str,
        *,
        body: Optional[dict] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, dict, Dict[str, str]]:
        """One request; returns ``(status, json_body, headers)``."""
        payload = b"" if body is None else _encode_json(body).encode()
        extra = _header_lines(headers) if headers else ""
        if payload:
            extra += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
            )
        reader = asyncio.StreamReader(limit=MAX_REQUEST_BYTES)
        reader.feed_data(
            f"{method} {target} HTTP/1.1\r\nHost: mem\r\n"
            f"Connection: close\r\n{extra}\r\n".encode()
            + payload
        )
        reader.feed_eof()
        writer = _MemoryWriter()
        await handle_connection(
            self.service, reader, writer, client=self.client
        )
        return self._parse_response(bytes(writer.buffer))

    async def get(self, target: str, **kwargs):
        return await self.request("GET", target, **kwargs)

    async def post(self, target: str, **kwargs):
        return await self.request("POST", target, **kwargs)

    @staticmethod
    def _parse_response(raw: bytes) -> Tuple[int, dict, Dict[str, str]]:
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        # "HTTP/1.1 NNN ...": the status sits at a fixed offset.
        status = int(lines[0][9:12])
        if not body:
            return status, {}, headers
        text = body.decode()
        if headers.get("content-type", "").startswith("application/json"):
            return status, json.loads(text), headers
        return status, text, headers
