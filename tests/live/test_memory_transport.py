"""The in-memory fabric: determinism, codec fidelity, scrape behaviour.

ISSUE satellites:

* seeded determinism — two :class:`MemoryTransport` overlay runs with the
  same :class:`FaultPlan` seed produce **byte-identical**
  ``SimulationSummary`` JSON (digested through the store's
  ``stable_key_hash`` canonical encoding);
* the supervisor's status scrape times out and retries **per node**: one
  partitioned/dead node never blanks or stalls the other nodes' results;
* everything here runs without opening a single UDP socket — enforced by
  a fixture that makes ``SOCK_DGRAM`` creation an immediate failure.
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.core.messages import CvPing
from repro.experiments.store import stable_key_hash
from repro.live.control import StatusReply, StatusRequest
from repro.live.faults import SUPERVISOR, FaultPlan, LinkFault, Partition
from repro.live.memory_transport import (
    MemoryNetwork,
    MemoryTransport,
    run_memory_overlay,
    run_virtual,
)
from repro.live.supervisor import LiveConfig, StatusProber

from test_wire_format import FORGED_DATAGRAMS

pytestmark = pytest.mark.usefixtures("no_udp_sockets")


@pytest.fixture()
def no_udp_sockets(monkeypatch):
    """Fail loudly if anything under test opens a UDP socket.

    The event loop's internal self-pipe is a stream socketpair, so only
    datagram sockets are forbidden — exactly what "the in-memory suite
    runs without sockets" promises.
    """
    original = socket.socket.__init__

    def guarded(self, family=-1, type=-1, proto=-1, fileno=None):
        if type == socket.SOCK_DGRAM:
            raise AssertionError(
                "in-memory test opened a UDP socket"
            )
        original(self, family, type, proto, fileno)

    monkeypatch.setattr(socket.socket, "__init__", guarded)
    yield


def overlay_config(**overrides) -> LiveConfig:
    base = dict(
        nodes=6,
        duration=10.0,
        seed=3,
        protocol_period=0.5,
        monitoring_period=0.5,
        ping_timeout=0.2,
        introducer_ttl=2.0,
        sample_interval=2.0,
        control_port=-1,
    )
    base.update(overrides)
    return LiveConfig(**base)


# -- transport fundamentals --------------------------------------------------


def test_memory_transport_send_receive_and_codec_path():
    async def scenario():
        network = MemoryNetwork()
        inbox_a, inbox_b = [], []
        a = MemoryTransport(network, lambda m, addr: inbox_a.append((m, addr)))
        b = MemoryTransport(network, lambda m, addr: inbox_b.append((m, addr)))
        message = CvPing(sender=1, seq=7)
        size = a.send_to(b.local_address, message)
        assert size > 0
        await asyncio.sleep(0)  # one loop turn: a delay-0 copy is ready at once
        assert inbox_b == [(message, a.local_address)]
        assert a.stats.datagrams_sent == 1
        assert b.stats.datagrams_received == 1
        # Raw garbage travels the same receive path as over UDP.
        b._on_datagram(b"garbage", a.local_address)
        assert b.stats.malformed == 1
        assert len(inbox_b) == 1
        b.close()
        a.send_to(b.local_address, message)
        await asyncio.sleep(0)
        assert network.undeliverable == 1
        return True

    assert run_virtual(scenario())


def test_forged_datagrams_are_counted_drops_not_loop_errors():
    async def scenario():
        loop_errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: loop_errors.append(context)
        )
        network = MemoryNetwork()
        inbox = []
        a = MemoryTransport(network, lambda m, addr: None)
        b = MemoryTransport(network, lambda m, addr: inbox.append(m))
        for count, payload in enumerate(FORGED_DATAGRAMS, start=1):
            # Through the hub, as a hostile peer's bytes would arrive.
            network.deliver(a.local_address, b.local_address, payload)
            await asyncio.sleep(0)
            assert b.stats.datagrams_received == count
            assert b.stats.malformed == count
        assert b.stats.handler_errors == 0
        assert inbox == []
        assert loop_errors == []
        return True

    assert run_virtual(scenario())


def test_memory_transport_handler_exceptions_contained():
    async def scenario():
        network = MemoryNetwork()

        def explode(message, addr):
            raise RuntimeError("handler bug")

        a = MemoryTransport(network, lambda m, addr: None)
        b = MemoryTransport(network, explode)
        a.send_to(b.local_address, CvPing(sender=1, seq=1))
        await asyncio.sleep(0)
        assert b.stats.handler_errors == 1
        return True

    assert run_virtual(scenario())


def test_memory_network_applies_latency_on_virtual_clock():
    async def scenario():
        loop = asyncio.get_running_loop()
        network = MemoryNetwork(FaultPlan(latency=0.5, seed=1))
        arrivals = []
        a = MemoryTransport(network, lambda m, addr: None, label=0)
        b = MemoryTransport(
            network, lambda m, addr: arrivals.append(loop.time()), label=1
        )
        start = loop.time()
        a.send_to(b.local_address, CvPing(sender=0, seq=1))
        await asyncio.sleep(1.0)
        assert len(arrivals) == 1
        assert arrivals[0] - start == pytest.approx(0.5, abs=1e-6)
        return True

    assert run_virtual(scenario())


# -- seeded determinism (satellite) ------------------------------------------


def test_same_seed_produces_byte_identical_summary_json():
    plan = FaultPlan(loss=0.05, jitter=0.002, duplicate=0.01, seed=42)
    first = run_memory_overlay(overlay_config(), plan=plan)
    second = run_memory_overlay(overlay_config(), plan=plan)
    a, b = first.summary.to_json(), second.summary.to_json()
    assert a == b
    # The store's canonical digest agrees — the summary would land in the
    # same content-addressed cell byte for byte.
    assert stable_key_hash((a,)) == stable_key_hash((b,))
    # And the run actually did something worth comparing.
    assert first.discovery_ratio > 0.5
    assert first.violations == 0


def test_different_fault_seed_changes_the_run():
    config = overlay_config()
    heavy = FaultPlan(loss=0.3, seed=1)
    heavy2 = FaultPlan(loss=0.3, seed=2)
    a = run_memory_overlay(config, plan=heavy).summary.to_json()
    b = run_memory_overlay(config, plan=heavy2).summary.to_json()
    assert a != b


def test_crash_respawn_is_deterministic_too():
    config = overlay_config(duration=14.0, crash_after=5.0, crash_downtime=2.0)
    first = run_memory_overlay(config)
    second = run_memory_overlay(config)
    assert first.summary.to_json() == second.summary.to_json()
    assert first.crash_victims == second.crash_victims
    assert first.crashes == 1
    assert first.victim_recovery is not None and first.victim_recovery >= 0.9


# -- the scrape path (satellite: per-node timeout + retry) -------------------


class _StatusNode:
    """A scriptable status responder bound to a memory transport."""

    def __init__(self, network: MemoryNetwork, node: int, *, ignore_first=0):
        self.node = node
        self._ignore = ignore_first
        self.requests_seen = 0
        self.transport = MemoryTransport(network, self._handle, label=node)

    def _handle(self, message, addr):
        if not isinstance(message, StatusRequest):
            return
        self.requests_seen += 1
        if self.requests_seen <= self._ignore:
            return  # drop it: simulates a lost probe or reply
        self.transport.send_to(
            addr, StatusReply(node=self.node, probe=message.probe)
        )


def test_scrape_does_not_block_on_a_partitioned_node():
    async def scenario():
        loop = asyncio.get_running_loop()
        # Node 1 is cut off from the supervisor; node 0 is healthy.
        plan = FaultPlan(
            partitions=(
                Partition(groups=((0, SUPERVISOR), (1,)), end=-1.0),
            )
        )
        network = MemoryNetwork(plan)
        responsive = _StatusNode(network, 0)
        partitioned = _StatusNode(network, 1)
        prober = StatusProber()
        scraper = MemoryTransport(network, prober.on_reply, label=SUPERVISOR)
        entries = [
            (0, *responsive.transport.local_address),
            (1, *partitioned.transport.local_address),
        ]
        start = loop.time()
        statuses = await prober.probe(
            scraper, entries, timeout=1.2, attempts=3
        )
        elapsed = loop.time() - start
        # The healthy node's status came back despite the dead one, and
        # the whole sweep respected the overall budget.
        assert sorted(statuses) == [0]
        assert statuses[0].node == 0
        assert elapsed <= 1.2 + 1e-6
        # The partitioned node was retried, not abandoned after one shot.
        assert partitioned.requests_seen == 0  # nothing got through
        return True

    assert run_virtual(scenario())


def test_scrape_retries_recover_a_lost_probe():
    async def scenario():
        network = MemoryNetwork()
        flaky = _StatusNode(network, 5, ignore_first=2)
        prober = StatusProber()
        scraper = MemoryTransport(network, prober.on_reply, label=SUPERVISOR)
        statuses = await prober.probe(
            scraper,
            [(5, *flaky.transport.local_address)],
            timeout=1.2,
            attempts=3,
        )
        assert sorted(statuses) == [5]
        assert flaky.requests_seen == 3  # two dropped, third answered
        return True

    assert run_virtual(scenario())


def test_scrape_retries_survive_probe_loss_toward_one_node():
    async def scenario():
        # 60% loss only on the supervisor -> node 2 link: with three
        # attempts the probe still gets through deterministically for this
        # seed, and other nodes are unaffected.
        plan = FaultPlan(
            links=(LinkFault(src=SUPERVISOR, dst=2, loss=0.6),), seed=4
        )
        network = MemoryNetwork(plan)
        nodes = [_StatusNode(network, n) for n in (1, 2, 3)]
        prober = StatusProber()
        scraper = MemoryTransport(network, prober.on_reply, label=SUPERVISOR)
        entries = [(n.node, *n.transport.local_address) for n in nodes]
        statuses = await prober.probe(
            scraper, entries, timeout=1.5, attempts=5
        )
        assert sorted(statuses) == [1, 2, 3]
        return True

    assert run_virtual(scenario())


def test_scrape_survives_latency_longer_than_one_attempt_window():
    async def scenario():
        # RTT ~0.5s virtual (0.25s each way through the hub) against a
        # 0.9s budget split over 3 attempts (0.3s each): the reply to the
        # first probe lands *during* the second attempt's window and must
        # still resolve the node — retries add probes, they never shrink
        # the listening window.
        network = MemoryNetwork(FaultPlan(latency=0.25, seed=1))
        node = _StatusNode(network, 4)
        prober = StatusProber()
        scraper = MemoryTransport(network, prober.on_reply, label=SUPERVISOR)
        statuses = await prober.probe(
            scraper,
            [(4, *node.transport.local_address)],
            timeout=0.9,
            attempts=3,
        )
        assert sorted(statuses) == [4]
        return True

    assert run_virtual(scenario())


def test_explicit_plan_gets_its_own_store_cell(tmp_path):
    from repro.experiments.store import SummaryStore
    from repro.live.supervisor import live_config_key

    config = overlay_config()
    store = SummaryStore(tmp_path)
    clean = run_memory_overlay(config, store=store)
    lossy = run_memory_overlay(
        config, plan=FaultPlan(loss=0.2, seed=7), store=store
    )
    # Two distinct content-addressed cells: the faulty run must never
    # clobber (or masquerade as) the fault-free deployment's results.
    assert clean.store_path != lossy.store_path
    assert len(list(store.paths())) == 2
    # The faulty cell's address is the plan-overridden key.
    assert lossy.store_path.endswith(
        str(
            store.path_for(
                live_config_key(config, plan=FaultPlan(loss=0.2, seed=7))
            ).name
        )
    )


# -- fault plan push through the transport surface ---------------------------


def test_set_fault_plan_reaches_the_hub():
    async def scenario():
        network = MemoryNetwork()
        received = []
        a = MemoryTransport(network, lambda m, addr: None, label=0)
        b = MemoryTransport(
            network, lambda m, addr: received.append(m), label=1
        )
        a.set_fault_plan(FaultPlan(loss=1.0, seed=1))
        a.send_to(b.local_address, CvPing(sender=0, seq=1))
        await asyncio.sleep(0.1)
        assert received == []
        a.set_fault_plan(FaultPlan())  # heal
        a.send_to(b.local_address, CvPing(sender=0, seq=2))
        await asyncio.sleep(0.1)
        assert len(received) == 1
        return True

    assert run_virtual(scenario())


def test_virtual_clock_deadlock_is_loud():
    async def scenario():
        await asyncio.get_running_loop().create_future()  # waits forever

    with pytest.raises(RuntimeError, match="sleep forever"):
        run_virtual(scenario())
