"""Persistent node storage: live rejoins retrieve CV/PS/TS from disk.

The system model grants every node "persistent storage that can be
retrieved after a failure or a rejoin"; in the live runtime that is the
node's state file.  A restarted :class:`~repro.live.runtime.LiveNode`
must come back with its coarse view, pinging set, target set and ping
counters — and rejoin with the reduced JOIN weight of Figure 1.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import typing

import pytest
from hypothesis import given, strategies as st

from repro.core.config import AvmonConfig
from repro.live.codec import wire_types
from repro.live.introducer import Introducer
from repro.live.runtime import LiveNode, LiveNodeSpec, StateFiles, referenced_ids
from repro.core.messages import CvFetchReply, Join, Notify


def _spec(node, addr, state_file="", **overrides):
    defaults = dict(
        node=node,
        introducer_host=addr[0],
        introducer_port=addr[1],
        avmon=AvmonConfig(
            n_expected=8,
            k=3,
            cvs=7,
            protocol_period=0.2,
            monitoring_period=0.2,
            ping_timeout=0.08,
            forgetful_tau=0.5,
        ),
        heartbeat_interval=0.1,
        directory_interval=0.2,
        snapshot_interval=0.1,
        seed=9,
        state_file=state_file,
    )
    defaults.update(overrides)
    return LiveNodeSpec(**defaults)


def test_state_round_trips_across_restart(tmp_path):
    state_file = str(tmp_path / "node-1.json")

    async def first_life():
        introducer = Introducer(ttl=2.0)
        addr = await introducer.start()
        node = LiveNode(_spec(1, addr, state_file))
        await node.start()
        try:
            # Hand-plant protocol state, then leave gracefully.
            node.relation.add_nodes([2, 3, 4, 5])
            node.node.cv.add(2, node.rng)
            node.node.cv.add(3, node.rng)
            node.node.ps[4] = 1.25
            node.node.ts.add(5)
            record = node.node.store.record_for(5)
            record.pings_sent = 6
            record.pings_answered = 5
        finally:
            await node.stop(graceful=True)
            introducer.close()

    async def second_life():
        introducer = Introducer(ttl=2.0)
        addr = await introducer.start()
        node = LiveNode(_spec(1, addr, state_file))
        await node.start()
        try:
            restored = node.node
            assert set(restored.cv.entries()) == {2, 3}
            assert restored.ps == {4: 1.25}
            assert restored.ts == {5}
            record = restored.store.record_for(5)
            assert (record.pings_sent, record.pings_answered) == (6, 5)
            # Rejoin semantics: the node knows it joined before and when it
            # left, so Figure 1's reduced rejoin weight applies.
            assert restored._joined_before
            assert restored.last_leave_time is not None
        finally:
            await node.stop(graceful=False)
            introducer.close()

    asyncio.run(asyncio.wait_for(first_life(), timeout=30.0))
    payload = json.loads((tmp_path / "node-1.json").read_text())
    assert payload["cv"] == [2, 3]
    assert payload["ps"] == [[4, 1.25]]
    assert payload["ts"] == [5]
    asyncio.run(asyncio.wait_for(second_life(), timeout=30.0))


def test_state_from_another_overlay_run_is_rejected(tmp_path):
    """Epoch-stamped state: a reused --state-dir must not preload PS/TS
    from a previous run (that would fake discovery and pass CI gates
    vacuously).  Same epoch -> restored; different epoch -> clean boot."""
    state_file = str(tmp_path / "node-3.json")

    async def life(epoch, plant=False):
        introducer = Introducer(ttl=2.0)
        addr = await introducer.start()
        node = LiveNode(_spec(3, addr, state_file, epoch=epoch))
        await node.start()
        try:
            if plant:
                node.relation.add_node(9)
                node.node.ps[9] = 2.0
            return dict(node.node.ps)
        finally:
            await node.stop(graceful=True)
            introducer.close()

    asyncio.run(asyncio.wait_for(life(epoch=1000.0, plant=True), timeout=30.0))
    same_run = asyncio.run(asyncio.wait_for(life(epoch=1000.0), timeout=30.0))
    assert same_run == {9: 2.0}
    other_run = asyncio.run(asyncio.wait_for(life(epoch=2000.0), timeout=30.0))
    assert other_run == {}


def test_corrupt_state_file_is_ignored(tmp_path):
    state_file = tmp_path / "node-2.json"
    state_file.write_text("{ not json")

    async def scenario():
        introducer = Introducer(ttl=2.0)
        addr = await introducer.start()
        node = LiveNode(_spec(2, addr, str(state_file)))
        await node.start()
        try:
            assert node.node.ps == {}
            assert len(node.node.cv) == 0
            assert not node.node._joined_before or True  # booted cleanly
        finally:
            await node.stop(graceful=False)
            introducer.close()

    asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))


def test_state_files_write_get_pop(tmp_path):
    """The file-backed store a node process keeps its snapshots in."""
    store = StateFiles()
    key = str(tmp_path / "node-4.json")
    assert store.get(key) is None
    store[key] = '{"version": 1}'
    assert store.get(key) == '{"version": 1}'
    assert [p.name for p in tmp_path.iterdir()] == ["node-4.json"]  # no temps
    assert store.pop(key, None) == '{"version": 1}'
    assert store.get(key) is None
    assert store.pop(key, None) is None
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "bad.json").write_bytes(b"\xff\xfe")
    assert store.get(str(tmp_path / "bad.json")) is None  # not UTF-8: no state


def test_referenced_ids_walks_every_id_field():
    assert referenced_ids(Join(sender=1, origin=2, weight=3)) == (1, 2)
    assert referenced_ids(Notify(sender=4, monitor=5, target=6)) == (4, 5, 6)
    assert set(referenced_ids(CvFetchReply(sender=7, seq=1, view=(8, 9)))) == {
        7,
        8,
        9,
    }
    # An id outside [0, 2**48) names no node: the message has no id list.
    top = (1 << 48) - 1
    assert referenced_ids(Notify(sender=4, monitor=top, target=6)) == (4, top, 6)
    assert referenced_ids(Notify(sender=4, monitor=top + 1, target=6)) is None
    assert referenced_ids(Notify(sender=4, monitor=-1, target=6)) is None
    assert referenced_ids(CvFetchReply(sender=7, seq=1, view=(8, top + 1))) is None


def _referenced_ids_by_probing(message):
    """The pre-PR-15 implementation, kept as the reference: probe every
    id-bearing name on every message.  An int outside ``[0, 2**48)``
    names no node, so the message has no id list (None)."""
    ids = []
    for name in ("sender", "origin", "monitor", "target", "subject"):
        value = getattr(message, name, None)
        if isinstance(value, int) and not isinstance(value, bool):
            ids.append(value)
    for name in ("view", "monitors"):
        value = getattr(message, name, None)
        if isinstance(value, tuple):
            ids.extend(
                v for v in value if isinstance(v, int) and not isinstance(v, bool)
            )
    if any(not 0 <= v < 1 << 48 for v in ids):
        return None
    return tuple(ids)


@pytest.mark.parametrize("cls", wire_types(), ids=lambda c: c.__name__)
def test_referenced_ids_plan_matches_probing_on_every_wire_type(cls):
    hints = typing.get_type_hints(cls)

    @given(st.data())
    def check(data):
        kwargs = {}
        for field in dataclasses.fields(cls):
            if hints[field.name] is int:  # incl. what must be skipped
                kwargs[field.name] = data.draw(
                    st.one_of(st.integers(-3, 1 << 48), st.booleans())
                )
            elif hints[field.name] == typing.Tuple[int, ...]:
                kwargs[field.name] = data.draw(
                    st.lists(
                        st.one_of(st.integers(-3, 99), st.booleans(), st.none()),
                        max_size=5,
                    ).map(tuple)
                )
        message = cls(**kwargs)
        assert referenced_ids(message) == _referenced_ids_by_probing(message)

    check()


def test_referenced_ids_sees_inherited_and_class_level_names():
    @dataclasses.dataclass
    class Forwarded(Notify):
        subject: int = 9
        hops: int = 0

    class Odd:  # not a dataclass: class attributes and properties count
        sender = 4
        view = (5, None, True, 6)

        @property
        def target(self):
            return 7

    class Negative(Odd):
        view = (5, -1, True, 6)

    for message in (
        Forwarded(sender=1, monitor=2, target=3),
        Odd(),
        Negative(),
        object(),
    ):
        assert referenced_ids(message) == _referenced_ids_by_probing(message)
    assert referenced_ids(Odd()) == (4, 7, 5, 6)
    assert referenced_ids(Negative()) is None
