"""The introducer: registration, directories, goodbye and TTL expiry."""

from __future__ import annotations

import asyncio

from repro.live.control import (
    DirectoryReply,
    DirectoryRequest,
    Goodbye,
    Heartbeat,
    Hello,
    HelloAck,
)
from repro.live.introducer import Introducer
from repro.live.transport import UdpTransport


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=10.0))


async def _settle(predicate, timeout=5.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError("condition never became true")
        await asyncio.sleep(0.01)


def test_register_directory_and_goodbye():
    async def scenario():
        introducer = Introducer(ttl=5.0)
        addr = await introducer.start()
        inbox = []
        client = await UdpTransport.create(lambda m, a: inbox.append(m))
        try:
            client.send_to(addr, Hello(node=1, port=1111))
            client.send_to(addr, Hello(node=2, port=2222, host="10.0.0.9"))
            await _settle(
                lambda: sum(isinstance(m, HelloAck) for m in inbox) >= 2
            )
            ack = next(m for m in inbox if isinstance(m, HelloAck))
            assert ack.epoch > 0.0

            client.send_to(addr, DirectoryRequest(node=1))
            await _settle(
                lambda: any(isinstance(m, DirectoryReply) for m in inbox)
            )
            reply = next(m for m in inbox if isinstance(m, DirectoryReply))
            nodes = {entry[0] for entry in reply.entries}
            assert nodes == {1, 2}
            by_id = {entry[0]: entry for entry in reply.entries}
            assert by_id[1] == (1, "127.0.0.1", 1111)  # host from datagram
            assert by_id[2] == (2, "10.0.0.9", 2222)  # explicit host wins

            client.send_to(addr, Goodbye(node=2))
            await _settle(lambda: introducer.alive_count() == 1)
            assert introducer.is_alive(1)
            assert not introducer.is_alive(2)
        finally:
            client.close()
            introducer.close()

    run(scenario())


def test_silent_node_expires_after_ttl():
    async def scenario():
        introducer = Introducer(ttl=0.3)
        addr = await introducer.start()
        inbox = []
        client = await UdpTransport.create(lambda m, a: inbox.append(m))
        try:
            client.send_to(addr, Hello(node=7, port=7777))
            await _settle(lambda: introducer.alive_count() == 1)
            # Heartbeats keep it alive past the TTL...
            for _ in range(3):
                await asyncio.sleep(0.15)
                client.send_to(addr, Heartbeat(node=7))
                await asyncio.sleep(0)
                assert introducer.alive_count() == 1
            # ...silence expires it.
            await asyncio.sleep(0.5)
            assert introducer.alive_count() == 0
            assert introducer.alive_entries() == ()
        finally:
            client.close()
            introducer.close()

    run(scenario())


def test_heartbeat_reregisters_an_expired_node():
    """A TTL expiry must not be permanent exile: the node's next heartbeat
    (sent from the same socket it announced in Hello) re-registers it at
    the datagram's source address."""

    async def scenario():
        introducer = Introducer(ttl=0.2)
        addr = await introducer.start()
        client = await UdpTransport.create(lambda m, a: None)
        try:
            client.send_to(addr, Hello(node=7, port=client.local_address[1]))
            await _settle(lambda: introducer.alive_count() == 1)
            await asyncio.sleep(0.4)  # miss the TTL
            assert introducer.alive_count() == 0
            client.send_to(addr, Heartbeat(node=7))
            await _settle(lambda: introducer.alive_count() == 1)
            entry = introducer.alive_entries()[0]
            assert entry[0] == 7
            assert (entry[1], entry[2]) == client.local_address
        finally:
            client.close()
            introducer.close()

    run(scenario())


def test_supervisor_drop_expires_immediately_and_quarantines():
    """A force-dropped node's stale heartbeats must not resurrect it, but
    a fresh Hello (the respawn) lifts the quarantine."""

    async def scenario():
        introducer = Introducer(ttl=60.0)
        addr = await introducer.start()
        client = await UdpTransport.create(lambda m, a: None)
        try:
            client.send_to(addr, Hello(node=3, port=3333))
            await _settle(lambda: introducer.alive_count() == 1)
            introducer.drop(3)
            assert introducer.alive_count() == 0
            # The corpse's in-flight heartbeat does not re-register it...
            client.send_to(addr, Heartbeat(node=3))
            await asyncio.sleep(0.1)
            assert introducer.alive_count() == 0
            # ...but the respawned process's Hello does.
            client.send_to(addr, Hello(node=3, port=3334))
            await _settle(lambda: introducer.alive_count() == 1)
        finally:
            client.close()
            introducer.close()

    run(scenario())


# -- direct-drive edge cases on an injectable clock ---------------------------
#
# No sockets, no asyncio: messages are fed straight into ``_handle`` and
# the TTL timebase is a hand-advanced clock, so every expiry boundary is
# exact instead of sleep-raced.

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.live.codec import encode  # noqa: E402
from repro.live.control import IntroducerSync  # noqa: E402
from repro.live.introducer import IntroducerGroup  # noqa: E402
from repro.obs import Journal  # noqa: E402


class _Clock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class _FakeTransport:
    """Collects outbound datagrams; enough surface for direct-drive."""

    def __init__(self) -> None:
        self.sent = []
        #: What went on the wire: the caller's pre-encoded bytes if given.
        self.payloads = []

    @property
    def local_address(self):
        return ("mem", 1)

    def send_to(self, address, message, data=None) -> int:
        self.sent.append((address, message))
        self.payloads.append(encode(message) if data is None else data)
        return 1

    def close(self) -> None:
        pass


def _direct(ttl: float = 2.0, **kwargs):
    clock = _Clock()
    intro = Introducer(ttl=ttl, clock=clock, **kwargs)
    intro._transport = _FakeTransport()
    return intro, clock


def test_quarantine_prunes_expired_entries():
    """Satellite regression: ids that never respawn must not leak.

    ``drop`` quarantines for one TTL; before the fix only a Hello removed
    the entry, so churn victims that never came back accumulated forever.
    ``_expire`` now reaps them with the registrations.
    """
    intro, clock = _direct(ttl=2.0)
    for node in range(50):
        intro._handle(Hello(node=node, port=1000 + node), ("mem", 2))
    for node in range(50):
        intro.drop(node)
    assert len(intro._quarantine) == 50
    clock.advance(2.0)  # exactly the quarantine deadline: now >= lifted_at
    intro.alive_entries()  # any read path runs _expire
    assert intro._quarantine == {}
    assert intro.alive_count() == 0


def test_quarantine_prune_spares_active_quarantines():
    intro, clock = _direct(ttl=2.0)
    intro._handle(Hello(node=1, port=1001), ("mem", 2))
    intro.drop(1)
    clock.advance(1.0)
    intro._handle(Hello(node=2, port=1002), ("mem", 2))
    intro.drop(2)  # quarantined until t+3.0
    clock.advance(1.0)  # node 1's quarantine lapses, node 2's is half-way
    intro.alive_entries()
    assert set(intro._quarantine) == {2}
    # The surviving quarantine still rejects the corpse's heartbeat.
    intro._handle(Heartbeat(node=2), ("mem", 2))
    assert not intro.is_alive(2)


def test_heartbeat_reregisters_after_organic_expiry_exact_boundary():
    intro, clock = _direct(ttl=2.0)
    intro._handle(Hello(node=9, port=9009), ("mem", 9))
    assert intro.is_alive(9)
    clock.advance(2.1)  # organic TTL expiry — no quarantine involved
    assert not intro.is_alive(9)
    # The next heartbeat re-registers at the datagram's source address.
    intro._handle(Heartbeat(node=9), ("mem", 77))
    assert intro.alive_entries() == ((9, "mem", 77),)


def test_hello_lifts_quarantine_immediately():
    intro, clock = _direct(ttl=60.0)
    intro._handle(Hello(node=3, port=3333), ("mem", 3))
    intro.drop(3)
    intro._handle(Heartbeat(node=3), ("mem", 3))
    assert not intro.is_alive(3)  # stale heartbeat: still quarantined
    intro._handle(Hello(node=3, port=3334), ("mem", 3))
    assert intro.is_alive(3)  # the respawn's Hello lifts it
    assert 3 not in intro._quarantine


def test_epoch_adoption_across_replicas():
    """The eldest (smallest) epoch wins quorum-wide, in either direction."""
    elder, _ = _direct(ttl=2.0, epoch=500.0, name="introducer")
    younger, _ = _direct(ttl=2.0, epoch=800.0, name="introducer-1")
    # Younger hears the elder: adopts.
    younger._handle(
        IntroducerSync(sender="introducer", epoch=500.0), ("mem", 50)
    )
    assert younger.epoch == 500.0
    # Elder hears the (formerly) younger: keeps its own.
    elder._handle(
        IntroducerSync(sender="introducer-1", epoch=800.0), ("mem", 51)
    )
    assert elder.epoch == 500.0
    # A zero epoch (defaulted field) is never adopted.
    younger._handle(IntroducerSync(sender="x", epoch=0.0), ("mem", 52))
    assert younger.epoch == 500.0


def test_sync_merges_fresher_entries_only():
    intro, clock = _direct(ttl=5.0)
    intro._handle(Hello(node=1, port=1001), ("mem", 2))  # heard directly now
    # A peer's view of node 1 is 3 s old, ours is fresh: ignored.
    intro._handle(
        IntroducerSync(
            sender="introducer-1",
            epoch=intro.epoch,
            entries=(((1, "mem", 9999, 3.0)),),
        ),
        ("mem", 50),
    )
    assert intro.alive_entries() == ((1, "mem", 1001),)
    # Node 2 is unknown here and only 1 s old at the peer: merged, and its
    # remaining TTL accounts for the age.
    intro._handle(
        IntroducerSync(
            sender="introducer-1",
            epoch=intro.epoch,
            entries=((2, "mem", 2002, 1.0),),
        ),
        ("mem", 50),
    )
    assert intro.is_alive(2)
    assert intro.synced_in == 1
    clock.advance(4.5)  # 1.0 age + 4.5 > ttl: node 2 expires before node 1
    assert not intro.is_alive(2)
    assert intro.is_alive(1)
    # An entry already stale at arrival is never merged.
    intro._handle(
        IntroducerSync(
            sender="introducer-1",
            epoch=intro.epoch,
            entries=((3, "mem", 3003, 6.0),),
        ),
        ("mem", 50),
    )
    assert not intro.is_alive(3)


def test_sync_and_expire_agree_at_the_ttl_boundary():
    """A registration lives through its deadline instant, whether this
    replica heard the node itself or a peer's sync carried it."""
    intro, clock = _direct(ttl=5.0)
    intro._handle(Hello(node=1, port=1001), ("mem", 2))
    clock.advance(5.0)
    assert intro.is_alive(1)  # heard exactly one TTL ago
    intro._handle(
        IntroducerSync(
            sender="introducer-1",
            epoch=intro.epoch,
            entries=((2, "mem", 2002, 5.0),),  # age == ttl at arrival
        ),
        ("mem", 50),
    )
    assert intro.is_alive(2)
    assert intro.synced_in == 1
    clock.advance(0.001)
    assert not intro.is_alive(1)
    assert not intro.is_alive(2)


def test_sync_respects_quarantine():
    """A forced drop outlives a peer replica's older view of the corpse."""
    intro, clock = _direct(ttl=2.0)
    intro._handle(Hello(node=4, port=4004), ("mem", 4))
    intro.drop(4)
    intro._handle(
        IntroducerSync(
            sender="introducer-1",
            epoch=intro.epoch,
            entries=((4, "mem", 4004, 0.5),),
        ),
        ("mem", 50),
    )
    assert not intro.is_alive(4)  # the quarantine wins
    clock.advance(2.5)  # quarantine lapsed
    intro._handle(
        IntroducerSync(
            sender="introducer-1",
            epoch=intro.epoch,
            entries=((4, "mem", 4004, 0.5),),
        ),
        ("mem", 50),
    )
    assert intro.is_alive(4)  # a *fresh* peer sighting re-admits it


def test_send_sync_carries_relative_ages():
    intro, clock = _direct(ttl=10.0)
    intro.peers = (("mem", 99),)
    intro._handle(Hello(node=1, port=1001), ("mem", 2))
    clock.advance(3.0)
    intro._handle(Hello(node=2, port=2002), ("mem", 3))
    intro.send_sync()
    (addr, sync) = intro._transport.sent[-1]
    assert addr == ("mem", 99)
    assert isinstance(sync, IntroducerSync)
    assert sync.entries == ((1, "mem", 1001, 3.0), (2, "mem", 2002, 0.0))


def test_group_start_requires_no_factories_for_udp():
    """One-replica groups are drop-in for the single introducer."""

    async def scenario():
        group = IntroducerGroup(1, ttl=5.0)
        addr = await group.start()
        try:
            assert group.addresses == (addr,)
            assert group.address == addr
            assert len(group) == 1
            assert group.kill_primary() is None  # never the last survivor
        finally:
            group.close()

    run(scenario())


# -- the directory cache against a re-rendering oracle -------------------------


class _Rerendering(Introducer):
    """The uncached directory path: expire and render on every read."""

    def _current_directory(self):
        self._expire(self._clock())
        reply = DirectoryReply(
            entries=tuple(
                (node, self._addresses[node][0], self._addresses[node][1])
                for node in sorted(self._last_seen)
                if node in self._addresses
            )
        )
        return None, None, reply, encode(reply)


_NODES = st.integers(0, 5)
#: Clock steps and sync ages that land on, just before and just past the
#: 2 s TTL (and so the quarantine) edges, plus a non-dyadic step.
_STEPS = st.sampled_from((0.0, 0.1, 0.5, 1.0, 1.5, 1.9, 2.0, 2.5))
_OPS = st.one_of(
    st.tuples(st.just("hello"), _NODES, st.integers(1, 3)),
    st.tuples(st.just("heartbeat"), _NODES, st.integers(1, 3)),
    st.tuples(st.just("goodbye"), _NODES),
    st.tuples(st.just("drop"), _NODES),
    st.tuples(
        st.just("sync"),
        st.lists(st.tuples(_NODES, st.integers(1, 3), _STEPS), max_size=4),
    ),
    st.tuples(st.just("directory"), _NODES),
    st.tuples(st.just("is_alive"), _NODES),
    st.tuples(st.just("push_sync")),
    st.tuples(st.just("advance"), _STEPS),
)


def _apply(intro, op) -> None:
    kind = op[0]
    if kind == "hello":
        intro._handle(Hello(node=op[1], port=op[2]), ("mem", 100 + op[1]))
    elif kind == "heartbeat":
        intro._handle(Heartbeat(node=op[1]), ("mem", op[2]))
    elif kind == "goodbye":
        intro._handle(Goodbye(node=op[1]), ("mem", 100 + op[1]))
    elif kind == "drop":
        intro.drop(op[1])
    elif kind == "sync":
        entries = tuple((n, "mem", port, age) for n, port, age in op[1])
        sync = IntroducerSync(sender="peer", epoch=intro.epoch, entries=entries)
        intro._handle(sync, ("mem", 50))
    elif kind == "directory":
        intro._handle(DirectoryRequest(node=op[1]), ("mem", 100 + op[1]))
    elif kind == "is_alive":
        intro.is_alive(op[1])
    else:
        intro.send_sync()


@settings(max_examples=300)
@given(st.lists(_OPS, max_size=40))
def test_cached_directory_matches_rerendering_oracle(ops):
    """Same ops on one clock: the cached introducer sends the same bytes
    (directory replies and ``HelloAck.alive``), holds the same registry
    and journals the same events at the same instants as one that expires
    and renders on every request."""
    clock = _Clock()
    pair = []
    for cls in (Introducer, _Rerendering):
        journal = Journal(clock=clock)
        intro = cls(ttl=2.0, epoch=50.0, clock=clock, journal=journal)
        intro._transport = _FakeTransport()
        intro.peers = (("mem", 99),)
        pair.append(intro)
    shipped, oracle = pair
    for op in ops:
        if op[0] == "advance":
            clock.advance(op[1])
        else:
            _apply(shipped, op)
            _apply(oracle, op)
        assert shipped._addresses == oracle._addresses
        assert shipped._last_seen == oracle._last_seen
        assert shipped._transport.payloads == oracle._transport.payloads
        assert shipped.journal.events == oracle.journal.events
    assert shipped.alive_entries() == oracle.alive_entries()
    assert shipped.journal.events == oracle.journal.events
    for (_addr, message), data in zip(
        shipped._transport.sent, shipped._transport.payloads
    ):
        assert data == encode(message)
