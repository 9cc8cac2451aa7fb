"""What one datagram costs and what it may do on the memory fabric.

The codec pays once per payload: ``encode`` hands back the last bytes for
the same message object, and ``decode`` memoises small payloads that
decoded cleanly, so receivers of equal bytes share one message object.
These tests hold that memo to its contract (entries stay equal to a fresh
decode, the bounds hold, malformed bytes are never kept) and check that a
datagram naming an id no node can have is dropped before it reaches a
node's state.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest
from test_memory_transport import no_udp_sockets, overlay_config  # noqa: F401

from repro.core.messages import CvFetchReply, Notify
from repro.live import codec
from repro.live.codec import decode, encode
from repro.live.memory_transport import (
    MemoryNetwork,
    MemoryOverlay,
    MemoryTransport,
    run_virtual,
)

pytestmark = pytest.mark.usefixtures("no_udp_sockets")

#: A well-formed NOTIFY whose monitor (2**48) fits no 48-bit endpoint.
FORGED_NOTIFY = (
    b'{"monitor":281474976710656,"sender":4,"t":"Notify","target":6,"v":1}'
)


@pytest.fixture()
def empty_memo():
    codec._memo.clear()
    yield codec._memo
    codec._memo.clear()


# -- encode ---------------------------------------------------------------------


def test_encode_renders_a_message_object_once():
    notify = Notify(sender=1, monitor=2, target=3)
    first = encode(notify)
    assert encode(notify) is first
    other = encode(Notify(sender=1, monitor=2, target=4))
    assert other != first
    assert encode(Notify(sender=1, monitor=2, target=3)) == first
    # A bool in an int field still renders as JSON's true, not as 1.
    assert b'"sender":true' in encode(Notify(sender=True, monitor=2, target=3))
    for unregistered in (None, object()):
        with pytest.raises(codec.CodecError, match="not a registered wire type"):
            encode(unregistered)


# -- the decode memo ------------------------------------------------------------


def test_memo_entries_equal_a_fresh_decode_after_a_run(empty_memo):
    """No handler mutated a message that was shared between receivers."""
    MemoryOverlay(overlay_config(nodes=8, fault="WAN")).run()
    assert len(empty_memo) > 100
    for data, message in empty_memo.items():
        assert message == codec._decode(data), data


def test_memo_stays_within_its_bounds(empty_memo):
    big = encode(CvFetchReply(sender=1, seq=1, view=tuple(range(1000))))
    assert len(big) > codec.MEMO_PAYLOAD_BYTES
    for index in range(100_000):
        data = b'{"monitor":%d,"sender":%d,"t":"Notify","target":%d,"v":1}' % (
            index,
            index + 1,
            index + 2,
        )
        assert decode(data) == Notify(index + 1, index, index + 2)
        assert len(empty_memo) <= codec.MEMO_ENTRIES
        if index % 1000 == 0:
            assert decode(big).view[-1] == 999
            assert big not in empty_memo
    assert empty_memo  # still memoising after 100k distinct payloads
    sizes = [len(data) for data in empty_memo]
    assert max(sizes) <= codec.MEMO_PAYLOAD_BYTES
    assert sum(sizes) <= codec.MEMO_ENTRIES * codec.MEMO_PAYLOAD_BYTES


@pytest.mark.parametrize(
    "payload",
    [
        b'{"monitor":5,"sender":4,"t":"Notify","target":6,"v":2}',
        b'{"monitor":5,"sender":4,"t":"Nope","target":6,"v":1}',
        b'{"monitor":"5","sender":4,"t":"Notify","target":6,"v":1}',
        b'{"monitor":5,"sender":4,"t":"Notify","target":6,"v":1',
        b"[" * 50_000,
    ],
    ids=["version", "type", "field", "json", "nesting"],
)
def test_a_malformed_datagram_is_never_memoised(empty_memo, payload):
    async def scenario():
        network = MemoryNetwork()
        inbox = []
        a = MemoryTransport(network, lambda m, addr: None)
        b = MemoryTransport(network, lambda m, addr: inbox.append(m))
        for arrival in range(1, 4):
            network.deliver(a.local_address, b.local_address, payload)
            await asyncio.sleep(0)
            assert b.stats.malformed == arrival
        return inbox

    assert run_virtual(scenario()) == []
    assert payload not in empty_memo


def test_a_registration_empties_the_memo(empty_memo):
    """A payload decodes against the registry as it is now, not as it was
    when the payload was first seen."""
    payload = b'{"t":"_Probe","v":1}'
    for generation in range(2):

        @dataclasses.dataclass(frozen=True)
        class _Probe:
            pass

        codec.register_wire_type(_Probe)
        try:
            assert type(decode(payload)) is _Probe, generation
        finally:
            del codec._REGISTRY["_Probe"], codec._SPEC_OF[_Probe]


# -- ids no node can have -------------------------------------------------------


def test_a_forged_id_never_reaches_a_nodes_relation():
    """One well-formed NOTIFY naming 2**48 used to enter the relation's id
    set before ``pack_endpoint`` refused it, leaving its universe and
    packed endpoints misaligned: every later scan paired ids with their
    neighbours' endpoints."""
    victim = 2

    async def forge(overlay):
        await asyncio.sleep(3.0)
        node = overlay.nodes[victim]
        source = overlay.nodes[4].transport.local_address
        overlay.network.deliver(source, node.transport.local_address, FORGED_NOTIFY)
        await asyncio.sleep(1.0)
        # Ids learnt after the forged one are where a misaligned relation
        # shows: each would be scanned with its neighbour's endpoint.
        fresh = encode(Notify(sender=4, monitor=100, target=101))
        overlay.network.deliver(source, node.transport.local_address, fresh)
        await asyncio.sleep(2.0)

    overlay = MemoryOverlay(overlay_config(nodes=8, duration=8.0), workload=forge)
    report = overlay.run()
    assert report.violations == 0
    node = overlay.nodes[victim]
    assert node.forged_drops == 1
    assert node.transport.stats.handler_errors == 0
    relation = node.relation
    universe = list(relation._universe)
    assert 1 << 48 not in relation and {100, 101} <= set(universe)
    for monitor in universe:
        assert relation.targets_of(monitor) == {
            target
            for target in universe
            if target != monitor and relation.condition.holds(monitor, target)
        }
