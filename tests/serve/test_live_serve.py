"""The serving surface over real UDP: supervisor-attached front end.

Boots a real overlay of OS processes with ``serve_port=0``, speaks actual
HTTP/1.1 bytes to the attached server, and scrapes the serving counters
over the control plane — the socketed twin of ``test_service_memory.py``.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.live.control import (
    OverlayInfoReply,
    OverlayInfoRequest,
    ServeStatusReply,
    ServeStatusRequest,
)
from repro.live.supervisor import LiveConfig, LiveSupervisor, _control_call

pytestmark = pytest.mark.udp


async def _http_get(port: int, target: str):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        f"GET {target} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n".encode()
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, (json.loads(body) if body else {})


def test_supervisor_attached_serving_over_udp():
    config = LiveConfig(
        nodes=5,
        duration=25.0,
        seed=3,
        protocol_period=0.6,
        monitoring_period=0.6,
        ping_timeout=0.3,
        control_port=0,
        serve_port=0,
    )

    async def scenario():
        supervisor = LiveSupervisor(config)
        run_task = asyncio.create_task(supervisor.run())
        try:
            for _ in range(300):
                if supervisor._serve_server is not None:
                    break
                await asyncio.sleep(0.1)
            else:
                pytest.fail("serving front end never came up")
            port = supervisor._serve_server.sockets[0].getsockname()[1]
            # One query deadline, max(2 s, 8 ping timeouts), read by the
            # service (which passes it to every backend.query) and the
            # backend alike.
            assert supervisor._serve_service.config.query_timeout == 2.4
            assert supervisor._serve_backend.query_timeout == 2.4

            status, health = await _http_get(port, "/healthz")
            assert status == 200
            assert health["status"] == "ok"

            # Verified query; monitors need a few protocol rounds to
            # discover their targets and accumulate ping history, so
            # retry past early timeouts and empty histories (the cache
            # TTL bounds how long a stale zero can linger).
            payload = None
            for _ in range(30):
                status, payload = await _http_get(port, "/availability/1?l=1")
                assert status == 200
                if (
                    payload["policy_satisfied"]
                    and not payload["timed_out"]
                    and payload["availability"] > 0.0
                ):
                    break
                await asyncio.sleep(0.5)
            assert payload["policy_satisfied"], payload
            assert payload["verified_monitors"]
            assert 0.0 < payload["availability"] <= 1.0

            # Control plane: observer discovery + serving counters.
            addr = supervisor.control_address
            info = await _control_call(addr, OverlayInfoRequest(probe=5), 2.0)
            assert isinstance(info, OverlayInfoReply)
            assert info.nodes == config.nodes
            assert info.k == config.resolved_k()
            assert info.introducer_port > 0

            stats = await _control_call(addr, ServeStatusRequest(probe=9), 2.0)
            assert isinstance(stats, ServeStatusReply)
            assert stats.probe == 9
            assert stats.requests >= 2
            assert stats.server_errors == 0
            assert stats.monitors_verified >= 1
        finally:
            supervisor._stop_early.set()
            report = await run_task
        assert report.violations == 0

    asyncio.run(scenario())
