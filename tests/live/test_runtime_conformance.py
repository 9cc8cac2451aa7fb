"""Runtime conformance: the same protocol, three runtimes, one behaviour.

Drive a tiny overlay through join -> discovery -> monitoring against the
discrete-event ``NodeRuntime`` (:class:`repro.net.network.SimHost`), the
live UDP runtime (:class:`repro.live.runtime.LiveNode` over real sockets)
and the deterministic in-memory fabric
(:class:`repro.live.memory_transport.MemoryOverlay`), then assert
equivalent protocol behaviour from one shared oracle:

* every PS entry a node reports satisfies the consistency condition, and
  every TS entry likewise (consistency respected — the property any party
  can audit);
* the overlay discovers (nearly) all of the optimal monitor
  relationships among its members (monitors discovered);
* monitoring pings flow: monitors record answered pings for their targets.

The protocol node is byte-for-byte the same class in every run — only the
runtime underneath changes.

ISSUE satellite: the file additionally runs a **fault conformance
matrix** — loss rates {0, 0.05, 0.2} swept through both the simulator's
fault-injected :class:`Network` and the in-memory live stack, with
discovery-ratio tolerance bands, a sim-vs-live equivalence band, and a
two-way partition/heal scenario.  Consistency violations stay at zero in
every regime: loss slows discovery, it never corrupts it.
"""

from __future__ import annotations

import asyncio
import functools
import random
from typing import Dict, Optional, Set, Tuple

import pytest

from repro.core.condition import ConsistencyCondition
from repro.core.config import AvmonConfig
from repro.core.node import AvmonNode
from repro.core.relation import MonitorRelation
from repro.live.faults import FaultInjector, FaultPlan, Partition
from repro.live.introducer import Introducer
from repro.live.memory_transport import MemoryOverlay
from repro.live.runtime import LiveNode, LiveNodeSpec
from repro.live.supervisor import LiveConfig
from repro.net.network import Network, SimHost
from repro.sim.engine import Simulator

N = 8
K = 3
CVS = 7
SEED = 5

#: The fault-conformance matrix (ISSUE): loss rate -> minimum discovery
#: ratio either runtime must reach after ~25 protocol periods.
LOSS_BANDS = {0.0: 0.9, 0.05: 0.85, 0.2: 0.6}

#: Maximum allowed |sim - live| discovery-ratio gap at one loss rate.
EQUIVALENCE_BAND = 0.25

#: Seed of every injected fault plan in the matrix.
FAULT_SEED = 11


class OverlaySnapshot:
    """What one overlay run exposes for the conformance assertions."""

    def __init__(self, condition: ConsistencyCondition) -> None:
        self.condition = condition
        #: node -> {monitor ids the node discovered in its PS}
        self.ps: Dict[int, Set[int]] = {}
        #: node -> {target ids the node monitors}
        self.ts: Dict[int, Set[int]] = {}
        #: node -> {target: (pings_sent, pings_answered)}
        self.pings: Dict[int, Dict[int, Tuple[int, int]]] = {}

    def expected_pairs(self) -> Set[Tuple[int, int]]:
        ids = sorted(self.ps)
        return {
            (monitor, target)
            for monitor in ids
            for target in ids
            if monitor != target and self.condition.holds(monitor, target)
        }

    def discovered_pairs(self) -> Set[Tuple[int, int]]:
        return {
            (monitor, target)
            for target, monitors in self.ps.items()
            for monitor in monitors
        }


def simulated_overlay(fault: Optional[FaultInjector] = None) -> OverlaySnapshot:
    """Protocol periods of 60 s on virtual time; ~25 periods of protocol."""
    config = AvmonConfig(n_expected=N, k=K, cvs=CVS)
    sim = Simulator()
    network = Network(sim, rng=random.Random(SEED), fault=fault)
    condition = ConsistencyCondition(K, N)
    relation = MonitorRelation(condition)
    join_rng = random.Random(SEED + 1)
    nodes = []
    for node_id in range(N):
        relation.add_node(node_id)
        host = SimHost(network, node_id, random.Random(SEED * 100 + node_id))
        node = AvmonNode(node_id, config, relation, host)
        host.attach(node)
        host.add_periodic(config.protocol_period, node.protocol_tick)
        host.add_periodic(config.monitoring_period, node.monitoring_tick)
        nodes.append(node)

        def bring_up(h=host, n=node):
            h.bring_up()
            n.begin_join()

        sim.schedule_at(join_rng.uniform(0.0, 3 * config.protocol_period), bring_up)
    sim.run_until(25 * config.protocol_period)
    snapshot = OverlaySnapshot(condition)
    for node in nodes:
        snapshot.ps[node.id] = set(node.ps)
        snapshot.ts[node.id] = set(node.ts)
        snapshot.pings[node.id] = {
            record.target: (record.pings_sent, record.pings_answered)
            for record in node.store.records()
        }
    return snapshot


def live_overlay() -> OverlaySnapshot:
    """Protocol periods of 0.2 s on the wall clock, in-process over UDP."""

    async def scenario() -> OverlaySnapshot:
        introducer = Introducer(ttl=1.5)
        addr = await introducer.start()
        nodes = []
        try:
            for node_id in range(N):
                spec = LiveNodeSpec(
                    node=node_id,
                    introducer_host=addr[0],
                    introducer_port=addr[1],
                    avmon=AvmonConfig(
                        n_expected=N,
                        k=K,
                        cvs=CVS,
                        protocol_period=0.2,
                        monitoring_period=0.2,
                        ping_timeout=0.08,
                        forgetful_tau=0.5,
                    ),
                    heartbeat_interval=0.1,
                    directory_interval=0.2,
                    snapshot_interval=0.0,
                    seed=SEED,
                )
                node = LiveNode(spec)
                await node.start()
                nodes.append(node)
            # ~25 protocol periods, matching the simulated run.
            await asyncio.sleep(25 * 0.2)
            snapshot = OverlaySnapshot(nodes[0].condition)
            for live in nodes:
                snapshot.ps[live.id] = set(live.node.ps)
                snapshot.ts[live.id] = set(live.node.ts)
                snapshot.pings[live.id] = {
                    record.target: (record.pings_sent, record.pings_answered)
                    for record in live.node.store.records()
                }
            return snapshot
        finally:
            for node in nodes:
                await node.stop(graceful=False)
            introducer.close()

    return asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))


def _memory_config(**overrides) -> LiveConfig:
    base = dict(
        nodes=N,
        k=K,
        cvs=CVS,
        seed=SEED,
        duration=13.0,  # ~25 protocol periods + assembly slack
        protocol_period=0.5,
        monitoring_period=0.5,
        ping_timeout=0.2,
        introducer_ttl=2.0,
        sample_interval=2.5,
        control_port=-1,
    )
    base.update(overrides)
    return LiveConfig(**base)


def _run_memory_overlay(
    plan: Optional[FaultPlan] = None, **overrides
) -> Tuple[MemoryOverlay, "LiveReport"]:
    overlay = MemoryOverlay(_memory_config(**overrides), plan=plan)
    report = overlay.run()
    return overlay, report


def memory_overlay() -> OverlaySnapshot:
    """Same live stack, in-process over MemoryTransport on a virtual clock."""
    overlay, _report = _run_memory_overlay()
    snapshot = OverlaySnapshot(overlay.condition)
    for node_id, live in overlay.nodes.items():
        snapshot.ps[node_id] = set(live.node.ps)
        snapshot.ts[node_id] = set(live.node.ts)
        snapshot.pings[node_id] = {
            record.target: (record.pings_sent, record.pings_answered)
            for record in live.node.store.records()
        }
    return snapshot


HARNESSES = {"sim": simulated_overlay, "live": live_overlay, "memory": memory_overlay}

#: The UDP harness keeps real sockets honest but cannot run in the
#: socket-free CI job; the marker lets `-m "not udp"` skip exactly it.
_HARNESS_PARAMS = [
    pytest.param(name, marks=pytest.mark.udp) if name == "live" else name
    for name in sorted(HARNESSES)
]


@pytest.fixture(scope="module", params=_HARNESS_PARAMS, ids=str)
def snapshot(request) -> OverlaySnapshot:
    return HARNESSES[request.param]()


def test_all_nodes_participated(snapshot):
    assert sorted(snapshot.ps) == list(range(N))


def test_consistency_condition_respected(snapshot):
    """No runtime lets an unverified pair into PS or TS (Section 3.3)."""
    holds = snapshot.condition.holds
    for target, monitors in snapshot.ps.items():
        for monitor in monitors:
            assert holds(monitor, target), (
                f"node {target} accepted non-monitor {monitor} into PS"
            )
    for monitor, targets in snapshot.ts.items():
        for target in targets:
            assert holds(monitor, target), (
                f"node {monitor} accepted non-target {target} into TS"
            )


def test_optimal_relationships_discovered(snapshot):
    """Both runtimes find (nearly) every optimal monitor relationship."""
    expected = snapshot.expected_pairs()
    discovered = snapshot.discovered_pairs()
    assert expected, "degenerate oracle: no expected pairs at this N/K"
    missing = expected - discovered
    coverage = 1.0 - len(missing) / len(expected)
    assert coverage >= 0.9, (
        f"only {coverage:.0%} of optimal relationships discovered; "
        f"missing: {sorted(missing)}"
    )
    assert discovered <= expected


def test_ts_mirrors_ps_discovery(snapshot):
    """NOTIFY reaches both endpoints: most discovered pairs appear in the
    monitor's TS as well as the target's PS."""
    ps_pairs = snapshot.discovered_pairs()
    ts_pairs = {
        (monitor, target)
        for monitor, targets in snapshot.ts.items()
        for target in targets
    }
    assert ts_pairs, "no TS entries at all"
    overlap = len(ps_pairs & ts_pairs)
    assert overlap >= 0.8 * len(ps_pairs)


def test_monitoring_pings_flow(snapshot):
    """Monitors ping their TS targets and the targets answer."""
    sent = answered = 0
    for monitor, records in snapshot.pings.items():
        for target, (pings_sent, pings_answered) in records.items():
            assert target in snapshot.ts[monitor]
            sent += pings_sent
            answered += pings_answered
    assert sent > 0, "no monitoring pings were sent"
    # Everyone stayed up, so the overwhelming majority must be answered.
    assert answered >= 0.8 * sent


# ---------------------------------------------------------------------------
# Fault conformance matrix (ISSUE satellite): loss {0, 0.05, 0.2} swept
# through BOTH runtimes, tolerance bands, equivalence, partition/heal.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def sim_ratio_under_loss(loss: float) -> Tuple[float, int]:
    """(discovery ratio, violations) of the fault-injected simulator."""
    fault = (
        FaultInjector(FaultPlan(loss=loss, seed=FAULT_SEED)) if loss else None
    )
    snapshot = simulated_overlay(fault)
    expected = snapshot.expected_pairs()
    discovered = snapshot.discovered_pairs() & expected
    holds = snapshot.condition.holds
    violations = sum(
        1
        for target, monitors in snapshot.ps.items()
        for monitor in monitors
        if not holds(monitor, target)
    ) + sum(
        1
        for monitor, targets in snapshot.ts.items()
        for target in targets
        if not holds(monitor, target)
    )
    return len(discovered) / len(expected), violations


@functools.lru_cache(maxsize=None)
def memory_ratio_under_loss(loss: float) -> Tuple[float, int]:
    """(discovery ratio, violations) of the in-memory live stack."""
    _overlay, report = _run_memory_overlay(
        FaultPlan(loss=loss, seed=FAULT_SEED)
    )
    assert len(report.statuses) == N, "final scrape must reach every node"
    return report.discovery_ratio, report.violations


@pytest.mark.parametrize("loss", sorted(LOSS_BANDS), ids=lambda l: f"loss={l}")
def test_sim_discovery_within_tolerance_band(loss):
    ratio, violations = sim_ratio_under_loss(loss)
    assert ratio >= LOSS_BANDS[loss], (
        f"sim at {loss:.0%} loss discovered only {ratio:.0%} "
        f"(band: >= {LOSS_BANDS[loss]:.0%})"
    )
    assert violations == 0, "loss must never create consistency violations"


@pytest.mark.parametrize("loss", sorted(LOSS_BANDS), ids=lambda l: f"loss={l}")
def test_memory_discovery_within_tolerance_band(loss):
    ratio, violations = memory_ratio_under_loss(loss)
    assert ratio >= LOSS_BANDS[loss], (
        f"in-memory live stack at {loss:.0%} loss discovered only "
        f"{ratio:.0%} (band: >= {LOSS_BANDS[loss]:.0%})"
    )
    assert violations == 0, "loss must never create consistency violations"


@pytest.mark.parametrize("loss", sorted(LOSS_BANDS), ids=lambda l: f"loss={l}")
def test_sim_and_live_degrade_equivalently(loss):
    """The paper's claims hold in both runtimes at matching loss rates."""
    sim_ratio, _ = sim_ratio_under_loss(loss)
    mem_ratio, _ = memory_ratio_under_loss(loss)
    assert abs(sim_ratio - mem_ratio) <= EQUIVALENCE_BAND, (
        f"at {loss:.0%} loss: sim={sim_ratio:.2f} live={mem_ratio:.2f} "
        f"diverge beyond {EQUIVALENCE_BAND}"
    )


def test_degradation_is_ordered():
    """More loss never means (meaningfully) more discovery."""
    for runtime in (sim_ratio_under_loss, memory_ratio_under_loss):
        ratios = [runtime(loss)[0] for loss in sorted(LOSS_BANDS)]
        for lighter, heavier in zip(ratios, ratios[1:]):
            assert heavier <= lighter + 0.05


GROUP_A = tuple(range(N // 2))
GROUP_B = tuple(range(N // 2, N))


def test_two_way_partition_blocks_cross_group_discovery():
    """While partitioned, each island still assembles and runs cleanly.

    Historically this scenario also asserted that *no* cross-group pair
    was ever discovered.  That held because CV gossip only refreshes
    through already-seeded views — which is exactly the island-merge gap
    (ROADMAP item 5).  Directory-driven CV re-seeding closes that gap:
    the introducer's directory spans the partition (it is deliberately
    not named in the groups), so cross-island *ids* now leak into coarse
    views by design, even while the data plane stays severed — the
    resulting cross pings simply fail until a heal, and the CvPing
    pruning recycles the unreachable entries.  What must still hold under
    a permanent partition: zero consistency violations, near-total
    in-group discovery, and the healer visibly at work.
    """
    plan = FaultPlan(
        partitions=(Partition(groups=(GROUP_A, GROUP_B), start=0.0, end=-1.0),),
        seed=FAULT_SEED,
    )
    # Longer window than the loss matrix: roughly half of all bootstrap
    # picks point across the partition and vanish (the introducer still
    # advertises everyone), so assembling each island takes extra rounds.
    overlay, report = _run_memory_overlay(plan, duration=25.0)
    assert report.violations == 0
    holds = overlay.condition.holds
    # The only way a cross-group id can travel is the directory healer;
    # its counter proves the leak is re-seeding, not a fault-plan hole.
    assert sum(s.cv_reseeds for s in report.statuses.values()) > 0
    # Within each side, the protocol still works.
    in_group_expected = sum(
        1
        for group in (GROUP_A, GROUP_B)
        for monitor in group
        for target in group
        if monitor != target and holds(monitor, target)
    )
    in_group_discovered = sum(
        1
        for target, status in report.statuses.items()
        for monitor, _t in status.ps
        if (monitor in GROUP_A) == (target in GROUP_A)
        and holds(monitor, target)
    )
    assert in_group_expected > 0
    # A node whose first bootstrap pick pointed across the partition used
    # to stay blind forever (the introducer still advertises everyone,
    # and PR2 only refreshes through an already-seeded CV).  The join
    # retry loop re-rolls the bootstrap until the node holds overlay
    # state, so every node assembles into its island and in-group
    # discovery is near-total, not merely a majority.
    assert in_group_discovered >= 0.8 * in_group_expected
    # The rescue is observable: with half of all bootstrap picks pointing
    # across the partition, some node needed at least one retry.
    assert sum(n.join_retries for n in overlay.nodes.values()) > 0


def test_partition_orphaned_joiner_recovers_after_heal():
    """A joiner partitioned away from its whole bootstrap supply recovers.

    One node is cut off from *everyone* for the entire join phase: every
    bootstrap datagram it sends vanishes, so without retries it would
    stay blind forever — the recovery gap this test pins.  The retry
    loop keeps re-rolling bootstraps (backoff-capped at eight protocol
    periods), so after the heal the next retry lands and the orphan
    assembles into the overlay: it inherits a coarse view and the
    surviving nodes learn about it in turn.

    Global discovery *is* asserted now: blind nodes that bootstrapped
    off each other during the partition used to form a side component
    that never re-merged (the documented island-merge gap).  With
    directory-driven CV re-seeding, any side component rediscovers the
    main overlay through the introducer's directory after the heal.
    """
    orphan = (0,)
    others = tuple(range(1, N))
    plan = FaultPlan(
        partitions=(Partition(groups=(orphan, others), start=0.0, end=12.0),),
        seed=FAULT_SEED,
    )
    overlay, report = _run_memory_overlay(plan, duration=25.0)
    assert report.violations == 0
    # The orphan needed the retries — its blind phase spans many
    # backoff-capped attempts.
    assert overlay.nodes[0].join_retries > 0
    # ...and they worked: post-heal the orphan holds real overlay state
    # and the overlay knows the orphan.
    assert len(overlay.nodes[0].node.cv) > 0
    known_by = sum(
        1
        for node_id, live in overlay.nodes.items()
        if node_id != 0 and 0 in live.node.cv
    )
    assert known_by >= 2, f"orphan only in {known_by} coarse views"
    # The side-component gap is closed: discovery recovers globally.
    assert report.discovery_ratio >= 0.9, (
        f"post-heal discovery only {report.discovery_ratio:.0%}"
    )


def test_two_islands_merge_after_heal():
    """Island merging (ROADMAP item 5), the direct scenario: two halves
    partitioned from the very first datagram each converge *separately*
    — no coarse view on either side ever held a peer from the other — so
    CV gossip alone could never re-join them after the heal.  Directory
    -driven re-seeding does: directory replies name alive peers absent
    from the local view, nodes inject them, and the overlay re-converges
    to (nearly) full discovery."""
    plan = FaultPlan(
        partitions=(Partition(groups=(GROUP_A, GROUP_B), start=0.0, end=12.0),),
        seed=FAULT_SEED,
    )
    overlay, report = _run_memory_overlay(plan, duration=25.0)
    assert report.violations == 0
    assert report.discovery_ratio >= 0.9, (
        f"islands failed to merge: discovery {report.discovery_ratio:.0%}"
    )
    # The merge is attributable: nodes re-seeded their views from the
    # directory (PR2 and CV gossip alone cannot cross a never-seeded gap).
    assert sum(s.cv_reseeds for s in report.statuses.values()) > 0


def test_partition_heals_and_discovery_recovers():
    """A two-way partition for the first chunk of the run, then healed:
    by teardown the overlay reaches (nearly) full discovery again."""
    plan = FaultPlan(
        partitions=(Partition(groups=(GROUP_A, GROUP_B), start=1.0, end=8.0),),
        seed=FAULT_SEED,
    )
    _overlay, report = _run_memory_overlay(plan, duration=20.0)
    assert report.violations == 0
    assert report.discovery_ratio >= 0.9, (
        f"post-heal discovery only {report.discovery_ratio:.0%}"
    )
