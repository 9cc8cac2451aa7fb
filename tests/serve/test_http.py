"""HTTP-layer unit tests: parsing, framing, keep-alive, error taxonomy.

These run against a stub service (no overlay), so they pin down the
protocol layer in isolation: every malformed input must produce a clean
HTTP error response — never an exception, never a silent drop.
"""

from __future__ import annotations

import asyncio
import json
from urllib.parse import parse_qs, urlsplit

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve.http import (
    MAX_REQUEST_BYTES,
    MemoryHttpClient,
    handle_connection,
)
from repro.serve.service import AvailabilityService, ServeConfig, _split_target


class StubService:
    """Echoes routing information back; records what it was asked."""

    def __init__(self):
        self.calls = []

    async def handle(self, method, target, body, client, headers):
        self.calls.append((method, target, body, client))
        if target == "/boom":
            raise RuntimeError("service bug")
        return 200, {"method": method, "target": target, "client": client}, {}


def drive(raw: bytes, service=None) -> bytes:
    """Feed raw bytes through handle_connection; return response bytes."""

    class Writer:
        def __init__(self):
            self.buffer = bytearray()

        def write(self, data):
            self.buffer.extend(data)

        async def drain(self):
            pass

        def close(self):
            pass

        async def wait_closed(self):
            pass

        def get_extra_info(self, name, default=None):
            return ("203.0.113.9", 55555) if name == "peername" else default

    async def scenario():
        reader = asyncio.StreamReader(limit=MAX_REQUEST_BYTES)
        reader.feed_data(raw)
        reader.feed_eof()
        writer = Writer()
        await handle_connection(
            service if service is not None else StubService(), reader, writer
        )
        return bytes(writer.buffer)

    return asyncio.run(scenario())


def parse_all(raw: bytes):
    """Split a byte stream of HTTP responses into (status, body) pairs."""
    out = []
    rest = raw
    while rest:
        head, _, tail = rest.partition(b"\r\n\r\n")
        lines = head.decode().split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            if line.lower().startswith("content-length:"):
                length = int(line.split(":")[1])
        body = json.loads(tail[:length]) if length else {}
        out.append((status, body))
        rest = tail[length:]
    return out


class TestParsing:
    def test_simple_get(self):
        service = StubService()
        raw = b"GET /nodes HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        responses = parse_all(drive(raw, service))
        assert responses == [
            (200, {"method": "GET", "target": "/nodes", "client": "203.0.113.9"})
        ]

    def test_x_client_id_overrides_peer_address(self):
        service = StubService()
        raw = (
            b"GET / HTTP/1.1\r\nX-Client-Id: tenant-7\r\n"
            b"Connection: close\r\n\r\n"
        )
        drive(raw, service)
        assert service.calls[0][3] == "tenant-7"

    def test_post_body_parsed_as_json(self):
        service = StubService()
        body = json.dumps({"k": 1}).encode()
        raw = (
            b"POST /predict HTTP/1.1\r\nContent-Length: %d\r\n"
            b"Connection: close\r\n\r\n%b" % (len(body), body)
        )
        drive(raw, service)
        assert service.calls[0][2] == {"k": 1}

    def test_invalid_json_body_becomes_none(self):
        service = StubService()
        raw = (
            b"POST /predict HTTP/1.1\r\nContent-Length: 9\r\n"
            b"Connection: close\r\n\r\nnot json!"
        )
        responses = parse_all(drive(raw, service))
        assert responses[0][0] == 200  # the stub accepts body=None
        assert service.calls[0][2] is None

    def test_keep_alive_serves_multiple_requests(self):
        service = StubService()
        raw = (
            b"GET /a HTTP/1.1\r\n\r\n"
            b"GET /b HTTP/1.1\r\n\r\n"
            b"GET /c HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        responses = parse_all(drive(raw, service))
        assert [b["target"] for _, b in responses] == ["/a", "/b", "/c"]
        assert len(service.calls) == 3

    def test_eof_without_request_is_silent(self):
        assert drive(b"") == b""


def _head_of_length(size: int) -> bytes:
    """A GET whose head, blank line included, is exactly *size* bytes of
    short header lines."""
    head = b"GET / HTTP/1.1\r\n"
    line = b"X-Pad: " + b"p" * 1000 + b"\r\n"
    while len(head) + len(line) + 2 <= size - 12:
        head += line
    head += b"X-Last: " + b"q" * (size - len(head) - 12) + b"\r\n\r\n"
    assert len(head) == size
    return head


class TestErrorTaxonomy:
    @pytest.mark.parametrize(
        "raw, expected_status",
        [
            (b"GARBAGE\r\n\r\n", 400),  # malformed request line
            (b"GET /x SPDY/9\r\n\r\n", 400),  # unsupported protocol
            (b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n", 400),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
                400,
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                % (MAX_REQUEST_BYTES + 1),
                413,
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort",
                400,  # body truncated at EOF
            ),
            # Lines past the stream reader's limit (MAX_REQUEST_BYTES, as
            # every reader serve_http, the store daemon and
            # MemoryHttpClient build).
            (
                b"GET /" + b"x" * MAX_REQUEST_BYTES + b" HTTP/1.1\r\n\r\n",
                413,
            ),
            (
                b"GET / HTTP/1.1\r\nX-A: "
                + b"a" * MAX_REQUEST_BYTES
                + b"\r\n\r\n",
                413,
            ),
            # Short lines, but the head with its blank line is one byte
            # over MAX_REQUEST_BYTES.
            (_head_of_length(MAX_REQUEST_BYTES + 1), 413),
            (b"GET / HTTP/1.1\n\n", 400),  # lines end in CRLF only
        ],
        ids=[
            "bad-request-line",
            "bad-protocol",
            "bad-header",
            "bad-content-length",
            "oversized-body",
            "truncated-body",
            "request-line-over-reader-limit",
            "header-line-over-reader-limit",
            "head-one-byte-over-limit",
            "bare-lf",
        ],
    )
    def test_malformed_requests_get_clean_errors(self, raw, expected_status):
        responses = parse_all(drive(raw))
        assert len(responses) == 1
        status, body = responses[0]
        assert status == expected_status
        assert "error" in body

    def test_service_exception_is_a_500_not_a_dropped_connection(self):
        raw = b"GET /boom HTTP/1.1\r\nConnection: close\r\n\r\n"
        responses = parse_all(drive(raw))
        assert responses == [(500, {"error": "internal"})]

    def test_request_line_too_long(self):
        raw = b"GET /" + b"x" * 9000 + b" HTTP/1.1\r\n\r\n"
        responses = parse_all(drive(raw))
        assert responses[0][0] == 400


class TestMemoryHttpClient:
    def test_round_trip_through_real_parse_path(self):
        async def scenario():
            service = StubService()
            client = MemoryHttpClient(service, client="test-client")
            status, body, headers = await client.get("/availability/7?l=2")
            assert status == 200
            assert body["target"] == "/availability/7?l=2"
            assert body["client"] == "test-client"
            assert headers["content-type"] == "application/json"
            status, body, _ = await client.post("/predict", body={"x": 1})
            assert service.calls[-1][2] == {"x": 1}
            return True

        assert asyncio.run(scenario())


class _Nodes:
    """The one backend call ``/nodes`` and ``/healthz`` make."""

    def nodes(self):
        return (3, 1, 2)


def _service(**config):
    return AvailabilityService(
        _Nodes(), ServeConfig(**config), clock=lambda: 0.0
    )


_CLOSE = b"Connection: close\r\n\r\n"


class TestGoldenResponses:
    """Whole responses of the real service, byte for byte."""

    def test_json_200_then_429_with_retry_after(self):
        service = _service(client_rate=0.5, client_burst=1.0)
        assert drive(b"GET /nodes HTTP/1.1\r\n" + _CLOSE, service) == (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: 20\r\nConnection: close\r\n\r\n"
            b'{"nodes": [1, 2, 3]}'
        )
        assert drive(b"GET /nodes/ HTTP/1.1\r\n" + _CLOSE, service) == (
            b"HTTP/1.1 429 Too Many Requests\r\n"
            b"Content-Type: application/json\r\nContent-Length: 69\r\n"
            b"Connection: close\r\nRetry-After: 2\r\n\r\n"
            b'{"error": "rate_limited", "limited_by": "client", '
            b'"retry_after": 2.0}'
        )

    def test_404(self):
        assert drive(b"GET /nope HTTP/1.1\r\n" + _CLOSE, _service()) == (
            b"HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\n"
            b"Content-Length: 29\r\nConnection: close\r\n\r\n"
            b'{"error": "no such endpoint"}'
        )

    def test_413(self):
        raw = b"POST /predict HTTP/1.1\r\nContent-Length: 300000\r\n\r\n"
        assert drive(raw, _service()) == (
            b"HTTP/1.1 413 Payload Too Large\r\n"
            b"Content-Type: application/json\r\nContent-Length: 27\r\n"
            b'Connection: close\r\n\r\n{"error": "body too large"}'
        )

    def test_prometheus_text(self):
        raw = b"GET /metrics?format=prometheus HTTP/1.1\r\n" + _CLOSE
        head = (
            b"HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n"
            b"Content-Length: 578\r\nConnection: close\r\n\r\n"
        )
        series = [
            (b"serve_cache_hits", b"gauge"),
            (b"serve_cache_misses", b"gauge"),
            (b"serve_query_monitors_rejected", b"counter"),
            (b"serve_query_monitors_verified", b"counter"),
            (b"serve_query_timed_out", b"counter"),
            (b"serve_shed_overload", b"counter"),
        ]
        body = b"".join(
            b"# TYPE avmon_%s %s\navmon_%s{kind=\"deterministic\"} 0\n"
            % (name, kind, name)
            for name, kind in series
        )
        assert drive(raw, _service()) == head + body

    def test_keep_alive_stream(self):
        raw = (
            b"GET /healthz HTTP/1.1\r\n\r\n"
            b"GET /nodes?l=2 HTTP/1.1\r\nX-Client-Id: b\r\n" + _CLOSE
        )
        assert drive(raw, _service()) == (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: 52\r\nConnection: keep-alive\r\n\r\n"
            b'{"in_flight": 0, "overlay_nodes": 3, "status": "ok"}'
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: 20\r\nConnection: close\r\n\r\n"
            b'{"nodes": [1, 2, 3]}'
        )


def _stdlib_split(target):
    split = urlsplit(target)
    return split.path.rstrip("/") or "/", parse_qs(split.query)


class TestSplitTarget:
    """``_split_target`` is ``urlsplit`` + ``parse_qs``, only faster."""

    @pytest.mark.parametrize(
        "target",
        [
            "//l?=b",  # "//l" is a netloc to urlsplit: the path is "/"
            "/a#f?l=1",
            "/a?l=%32",
            "/a?l=1&l=2",
            "/a?l=",
            "http://h/a?l=1",
            "/a?l=a+b%2Bc&%6C=3",
            "/a/?l=1&&m&=v&n=a=b;c",
            "/",
            "",
        ],
    )
    def test_explicit_cases(self, target):
        assert _split_target(target) == _stdlib_split(target)

    @settings(max_examples=300)
    @given(st.text(alphabet="/?#&=;%+ablx2fC3A9é \t"))
    def test_matches_the_stdlib(self, target):
        assert _split_target(target) == _stdlib_split(target)
