"""The UDP transport: delivery, malformed-datagram tolerance, peer table."""

from __future__ import annotations

import asyncio
import socket

from repro.core.config import AvmonConfig
from repro.core.messages import CvPing, Join
from repro.live.codec import encode
from repro.live.control import DirectoryReply
from repro.live.runtime import LiveNode, LiveNodeSpec
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


def test_learn_keeps_a_reused_address_with_its_new_owner():
    """Node 1 gives up port 5000, node 2 binds it, then node 1 is heard
    at its new port: node 2 must still resolve (fault labels read it)."""
    peers = PeerTable()
    old, new = ("mem", 5000), ("mem", 5001)
    peers.learn(1, old)
    peers.learn(2, old)
    peers.learn(1, new)
    assert peers.id_at(old) == 2
    assert peers.id_at(new) == 1
    assert peers.address_of(2) == old


def test_revision_counts_only_effective_changes():
    peers = PeerTable()
    address = ("mem", 7)
    peers.learn(1, address)
    learned = peers.revision
    peers.learn(1, address)
    assert peers.revision == learned  # nothing changed
    peers.learn(2, address)  # 2 now owns the reverse entry
    moved = peers.revision
    assert moved > learned
    peers.learn(1, address)  # forward entry equal: reverse re-pointed
    assert peers.id_at(address) == 1
    assert peers.revision > moved
    peers.forget(2)
    assert peers.revision > moved + 1


def _directory_node() -> LiveNode:
    node = LiveNode(
        LiveNodeSpec(
            node=1, introducer_host="mem", introducer_port=1,
            avmon=AvmonConfig(
                n_expected=4, k=2, cvs=3, protocol_period=1.0,
                monitoring_period=1.0, ping_timeout=0.25, forgetful_tau=2.0,
            ),
        )
    )
    node._joined = True  # direct drive: no protocol node to begin_join
    return node


def test_unchanged_directory_is_applied_once():
    node = _directory_node()
    entries = ((1, "mem", 11), (2, "mem", 12), (3, "mem", 13))
    node._on_directory(DirectoryReply(entries=entries))
    assert node.peers.alive_ids() == (1, 2, 3)

    def unexpected(*_args):
        raise AssertionError("an unchanged directory was re-learned")

    node.peers.learn = unexpected
    node._on_directory(DirectoryReply(entries=entries))
    assert node.peers.alive_ids() == (1, 2, 3)
    assert node._directory_seen.is_set()


def test_directory_reapplied_after_passive_move_restores_its_address():
    """Passive learning moved peer 2; the same directory again must put
    it back, so the unchanged-directory shortcut must not fire."""
    node = _directory_node()
    entries = ((1, "mem", 11), (2, "mem", 12))
    node._on_directory(DirectoryReply(entries=entries))
    node.peers.learn(2, ("mem", 99))
    node._on_directory(DirectoryReply(entries=entries))
    assert node.peers.address_of(2) == ("mem", 12)
    assert node.peers.id_at(("mem", 12)) == 2
