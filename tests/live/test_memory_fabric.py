"""The one overlay loop on the memory fabric: what the fork was hiding.

``MemoryOverlay`` is ``LiveSupervisor`` on a ``MemoryFabric``, so the
parts of the supervisor that only real processes used to reach — the
churn driver, the operator control plane, runtime fault pushes, early
``down`` — run here deterministically, on a virtual clock, without a
single UDP socket (same ``SOCK_DGRAM`` guard as the transport tests).
"""

from __future__ import annotations

import asyncio
import json

import pytest
from test_memory_transport import no_udp_sockets, overlay_config  # noqa: F401

from repro.core.relation import MonitorRelation
from repro.live import memory_transport
from repro.live.control import (
    ChaosReply,
    ChaosRequest,
    DownAck,
    DownRequest,
    FaultReply,
    FaultRequest,
    OverlayInfoReply,
    OverlayInfoRequest,
    OverlayStatusReply,
    OverlayStatusRequest,
)
from repro.live.memory_transport import (
    MEM_HOST,
    VIRTUAL_EPOCH,
    MemoryOverlay,
    MemoryTransport,
)
from repro.live.runtime import LiveNode, LiveNodeSpec
from repro.live.transport import wait_for
from repro.obs import Journal

pytestmark = pytest.mark.usefixtures("no_udp_sockets")


def _run(config, workload=None):
    journal = Journal()
    overlay = MemoryOverlay(config, workload=workload, journal=journal)
    return overlay, overlay.run(), journal


async def _call(overlay, request, timeout: float = 1.0):
    """One operator request from a MemoryTransport client (what
    ``control_call`` does over UDP)."""
    reply = asyncio.get_running_loop().create_future()
    client = MemoryTransport(
        overlay.network,
        lambda message, _addr: reply.done() or reply.set_result(message),
    )
    try:
        client.send_to(overlay.supervisor.control_address, request)
        return await wait_for(reply, timeout)
    finally:
        client.close()


# -- churn driver --------------------------------------------------------------


def _churn_config(**overrides):
    # 600 %/h: six-second mean sessions, dozens of transitions per run.
    return overlay_config(
        nodes=8, duration=30.0, churn="SYNTH", churn_per_hour=600.0, **overrides
    )


def test_synth_churn_is_driven_and_deterministic():
    _overlay, first, journal = _run(_churn_config())
    assert journal.count("live.node_leave") >= 5
    assert journal.count("live.node_respawned") >= 5
    assert first.violations == 0
    _overlay, second, again = _run(_churn_config())
    assert first.summary.to_json() == second.summary.to_json()
    assert json.dumps(journal.events) == json.dumps(again.events)


def test_graceful_leaver_restores_persisted_state():
    """A rejoined node reports monitors it discovered *before* it left:
    PS came back from its state file, not from rediscovery."""
    _overlay, report, journal = _run(_churn_config())
    rejoined = {
        e["node"]: e["ts"] - VIRTUAL_EPOCH
        for e in journal.events
        if e["event"] == "live.node_respawned"
    }
    restored = [
        node
        for node, back_at in rejoined.items()
        if node in report.statuses
        and any(found < back_at for _m, found in report.statuses[node].ps)
    ]
    assert restored, "no rejoined node kept a pre-leave PS entry"


def test_death_forgets_state_and_fault_target():
    async def workload(overlay):
        supervisor = overlay.supervisor
        states = supervisor.fabric.states
        await asyncio.sleep(5.0)
        key = supervisor._handles[2].spec.state_file
        before = key in states, 2 in supervisor._fault_targets()
        supervisor.request_death(2)
        await asyncio.sleep(1.0)
        after = key in states, 2 in supervisor._fault_targets()
        return before, after, supervisor.is_dead(2), supervisor.is_alive(2)

    _overlay, report, journal = _run(_churn_config(), workload)
    before, after, dead, alive = _overlay.workload_result
    assert before == (True, True)
    assert after == (False, False)
    assert dead and not alive
    died = next(
        i for i, e in enumerate(journal.events) if e["event"] == "live.node_death"
    )
    assert not any(
        e["event"] == "live.node_respawned" and e["node"] == 2
        for e in journal.events[died:]
    )
    assert 2 not in report.statuses
    assert report.violations == 0


# -- operator control plane ----------------------------------------------------


def test_status_and_info_over_memory_control_endpoint():
    config = overlay_config(control_port=0)

    async def workload(overlay):
        await asyncio.sleep(6.0)
        return (
            await _call(overlay, OverlayStatusRequest(probe=3)),
            await _call(overlay, OverlayInfoRequest(probe=4)),
        )

    overlay, _report, _journal = _run(config, workload)
    status, info = overlay.workload_result
    assert isinstance(status, OverlayStatusReply)
    assert (status.probe, status.nodes, status.alive) == (3, 6, 6)
    assert status.elapsed == pytest.approx(6.0, abs=0.5)
    assert 0 < status.discovered_pairs <= status.expected_pairs
    assert isinstance(info, OverlayInfoReply)
    assert (info.probe, info.nodes, info.k) == (4, 6, config.resolved_k())
    assert (info.introducer_host, info.epoch) == (MEM_HOST, VIRTUAL_EPOCH)


def test_chaos_budget_is_capped_and_quorum_never_orphaned():
    config = overlay_config(control_port=0, duration=16.0, introducers=2)

    async def workload(overlay):
        await asyncio.sleep(5.0)
        reply = await _call(
            overlay,
            ChaosRequest(kill=10_000, downtime=1.0, kill_introducers=5),
        )
        return reply, sum(r.running for r in overlay.introducer.replicas)

    overlay, report, journal = _run(config, workload)
    reply, replicas_left = overlay.workload_result
    assert isinstance(reply, ChaosReply)
    assert sorted(reply.victims) == list(range(6))  # everyone, once each
    assert reply.introducers_killed == ("introducer",)  # last replica stays
    assert replicas_left == 1
    assert journal.count("live.node_respawned") == 6
    assert report.crashes == 6
    assert report.violations == 0
    assert len(report.statuses) == 6


def test_fault_push_merges_then_heals_at_the_hub():
    config = overlay_config(control_port=0, duration=16.0, fault="WAN")
    wan = config.resolved_fault_plan()

    async def workload(overlay):
        plans = []
        set_plan = overlay.network.set_plan

        def counting(plan):
            plans.append(plan)
            set_plan(plan)

        overlay.network.set_plan = counting
        await asyncio.sleep(3.0)
        merged = await _call(
            overlay,
            FaultRequest(probe=1, plan=json.dumps({"loss": 0.3}), merge=True),
        )
        chaos = await _call(overlay, ChaosRequest(kill=1, downtime=0.5))
        # Past the respawn and two scrape samples (the re-broadcast path).
        await asyncio.sleep(5.0)
        victim = overlay.nodes[chaos.victims[0]]
        during = len(plans), overlay.network.injector.plan, victim.spec.fault
        bad = await _call(overlay, FaultRequest(probe=2, plan="{not json"))
        healed = await _call(overlay, FaultRequest(probe=3, plan=""))
        return merged, during, bad, healed, plans

    overlay, report, _journal = _run(config, workload)
    merged, during, bad, healed, plans = overlay.workload_result
    assert isinstance(merged, FaultReply) and merged.applied == 6
    # One hub change per push — the respawn and the per-scrape
    # re-broadcast never reset the decision streams — and the respawned
    # node carries no plan of its own to inject a second time.
    assert during == (1, plans[0], "")
    assert (plans[0].loss, plans[0].latency) == (0.3, wan.latency)
    assert bad.applied == -1
    assert healed.applied == 6
    assert len(plans) == 2 and plans[1].is_null()
    assert report.violations == 0


def test_down_request_ends_the_run_early():
    config = overlay_config(control_port=0, duration=60.0)

    async def workload(overlay):
        await asyncio.sleep(5.0)
        return await _call(overlay, DownRequest(probe=8))

    overlay, report, journal = _run(config, workload)
    assert overlay.workload_result == DownAck(probe=8)
    end = next(e for e in journal.events if e["event"] == "live.run.end")
    assert end["elapsed_s"] < 8.0
    assert len(report.statuses) == 6


# -- fabric edges --------------------------------------------------------------


def test_reused_state_dir_does_not_leak_into_the_next_run(tmp_path):
    """Every memory run is stamped with the same virtual epoch, so the
    node-side "different overlay run" guard cannot fire: each run's
    snapshots must live in that run's own state store.  k=4 relationships
    restored into a k=2 overlay would be consistency violations."""
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    _run(overlay_config(k=4, state_dir=str(shared)))
    _o, reused, _j = _run(overlay_config(k=2, state_dir=str(shared)))
    _o, clean, _j = _run(overlay_config(k=2, state_dir=str(fresh)))
    assert reused.violations == 0
    assert reused.summary.to_json() == clean.summary.to_json()


def test_memory_fabric_rejects_serve_port():
    with pytest.raises(ValueError, match="serve_port"):
        MemoryOverlay(overlay_config(serve_port=0))


# -- one relation per fabric ---------------------------------------------------


class _TwinRelation:
    """One node life's view of the fabric's shared relation, beside the
    private relation the node would own on its own: every id the node
    learns reaches both, and every exchange is answered by both."""

    def __init__(self, shared: MonitorRelation) -> None:
        self.shared, self.condition = shared, shared.condition
        self.private = MonitorRelation(shared.condition)
        #: Per find_matches call: did both relations list the same
        #: matches in the same order?
        self.agreed = []

    def add_node(self, node) -> None:
        self.shared.add_node(node)
        self.private.add_node(node)

    def add_nodes(self, nodes) -> None:
        nodes = tuple(nodes)
        self.shared.add_nodes(nodes)
        self.private.add_nodes(nodes)

    def find_matches(self, view_a, view_b):
        matches = self.shared.find_matches(view_a, view_b)
        private = self.private.find_matches(view_a, view_b)
        self.agreed.append(list(matches) == list(private))
        return matches


def test_shared_relation_sends_every_notify_in_the_private_order(monkeypatch):
    """NOTIFYs go out in ``find_matches`` iteration order, so equal match
    sets are not enough for equal bytes: on a 40-node WAN run with a
    crash and respawn, the shared relation lists every exchange's matches
    in the order a node-private relation would."""
    lives = []

    def node_with_twin(spec, **kwargs):
        twin = _TwinRelation(kwargs.pop("relation"))
        lives.append(twin)
        return LiveNode(spec, relation=twin, **kwargs)

    monkeypatch.setattr(memory_transport, "LiveNode", node_with_twin)
    config = overlay_config(
        nodes=40, duration=10.0, seed=5, fault="WAN",
        crash_after=4.0, crash_downtime=2.0,
    )
    overlay, report, journal = _run(config)
    assert report.violations == 0
    assert journal.count("live.node_respawned") >= 1 and len(lives) > 40
    shared = overlay.supervisor.fabric.relation
    calls = [agreed for twin in lives for agreed in twin.agreed]
    assert len(calls) > 1000 and all(calls)
    for twin in lives:
        assert twin.shared is shared
        assert set(twin.private._universe) <= set(shared._universe)


def test_every_node_life_on_a_memory_fabric_reads_one_relation():
    lives = []

    async def record(overlay):
        for _ in range(12):
            lives.extend(overlay.nodes.values())
            await asyncio.sleep(1.0)

    config = overlay_config(
        nodes=8, duration=14.0, crash_after=4.0, crash_downtime=2.0
    )
    overlay, report, journal = _run(config, record)
    relation = overlay.supervisor.fabric.relation
    respawned = {id(node) for node in lives} - {
        id(node) for node in overlay.nodes.values()
    }
    assert journal.count("live.node_respawned") >= 1 and respawned
    assert {id(node.relation) for node in lives} == {id(relation)}
    assert {id(node.condition) for node in lives} == {id(relation.condition)}
    assert set(relation._universe) == set(range(8))


def test_a_node_off_the_memory_fabric_keeps_its_own_relation():
    specs = [
        LiveNodeSpec(
            node=node,
            introducer_host="127.0.0.1",
            introducer_port=9,
            avmon=overlay_config().avmon(),
        )
        for node in (1, 2)
    ]
    first, second = (LiveNode(spec) for spec in specs)
    assert first.relation is not second.relation
    assert first.condition is first.relation.condition
    assert list(first.relation._universe) == [1]
