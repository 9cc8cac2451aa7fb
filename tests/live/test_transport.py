"""The UDP transport: delivery, malformed-datagram tolerance, peer table."""

from __future__ import annotations

import asyncio
import socket

from repro.core.messages import CvPing, Join
from repro.live.codec import encode
from repro.live.transport import PeerTable, UdpTransport

from test_wire_format import FORGED_DATAGRAMS


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=10.0))


async def _pair():
    inbox_a, inbox_b = [], []
    a = await UdpTransport.create(lambda m, addr: inbox_a.append((m, addr)))
    b = await UdpTransport.create(lambda m, addr: inbox_b.append((m, addr)))
    return a, b, inbox_a, inbox_b


async def _settle(predicate, timeout=5.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition never became true")
        await asyncio.sleep(0.01)


def test_send_and_receive_messages():
    async def scenario():
        a, b, inbox_a, inbox_b = await _pair()
        try:
            message = Join(sender=1, origin=2, weight=3)
            a.send_to(b.local_address, message)
            await _settle(lambda: inbox_b)
            received, addr = inbox_b[0]
            assert received == message
            assert addr == a.local_address
            assert a.stats.datagrams_sent == 1
            assert b.stats.datagrams_received == 1
            assert b.stats.malformed == 0
        finally:
            a.close()
            b.close()

    run(scenario())


def test_malformed_datagrams_counted_not_fatal():
    async def scenario():
        a, b, inbox_a, inbox_b = await _pair()
        raw = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            for junk in (b"", b"garbage", b'{"t":"Nope","v":1}', b"\xff" * 64):
                raw.sendto(junk, b.local_address)
            await _settle(lambda: b.stats.malformed >= 4)
            assert inbox_b == []
            # The transport still works after the attack.
            a.send_to(b.local_address, CvPing(sender=7, seq=1))
            await _settle(lambda: inbox_b)
            assert inbox_b[0][0] == CvPing(sender=7, seq=1)
        finally:
            raw.close()
            a.close()
            b.close()

    run(scenario())


def test_forged_datagrams_are_counted_drops_not_loop_errors():
    """An int literal past the interpreter's digit limit used to escape the
    codec as a plain ``ValueError``: not counted, and a traceback through
    the loop's exception handler for every such packet."""

    async def scenario():
        loop_errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: loop_errors.append(context)
        )
        a, b, inbox_a, inbox_b = await _pair()
        raw = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            for count, payload in enumerate(FORGED_DATAGRAMS, start=1):
                raw.sendto(payload, b.local_address)
                await _settle(lambda: b.stats.datagrams_received >= count)
                assert b.stats.malformed == count
            assert b.stats.handler_errors == 0
            assert inbox_b == []
            assert loop_errors == []
        finally:
            raw.close()
            a.close()
            b.close()

    run(scenario())


def test_handler_exceptions_contained():
    async def scenario():
        def explode(message, addr):
            raise RuntimeError("handler bug")

        b = await UdpTransport.create(explode)
        a = await UdpTransport.create(lambda m, addr: None)
        try:
            a.send_to(b.local_address, CvPing(sender=1, seq=1))
            await _settle(lambda: b.stats.handler_errors == 1)
            # Still receiving afterwards.
            a.send_to(b.local_address, CvPing(sender=1, seq=2))
            await _settle(lambda: b.stats.handler_errors == 2)
        finally:
            a.close()
            b.close()

    run(scenario())


def test_send_after_close_is_noop():
    async def scenario():
        a, b, *_ = await _pair()
        b.close()
        a.close()
        assert a.send_to(b.local_address, CvPing(sender=1)) == 0
        assert a.stats.datagrams_sent == 0

    run(scenario())


def test_peer_table():
    peers = PeerTable()
    peers.learn(1, ("127.0.0.1", 5000))
    peers.learn(2, ("127.0.0.1", 5001))
    peers.set_alive([1, 2])
    assert peers.address_of(1) == ("127.0.0.1", 5000)
    assert peers.is_alive(2)
    assert peers.alive_ids() == (1, 2)
    peers.forget(2)
    assert peers.address_of(2) is None
    assert not peers.is_alive(2)
    peers.set_alive([1])
    assert 1 in peers and len(peers) == 1
