"""The supervisor end to end: a crash, recovery, the report and the store.

The shared run boots an eight-node overlay on the memory fabric, hard
kills one node mid-run and asserts the overlay re-discovers the victim's
monitor relationships before teardown, with the summary flowing into the
standard store.  The same supervisor loop over real processes and UDP is
covered by ``test_cli_live_cache.py::TestLiveUpEndToEnd`` and by the CI
``live-smoke`` job.
"""

from __future__ import annotations

import asyncio
import pathlib

import pytest

from repro.core.condition import ConsistencyCondition
from repro.experiments.store import SummaryStore
from repro.live.control import StatusReply
from repro.live.memory_transport import (
    MemoryFabric,
    MemoryOverlay,
    VirtualEventLoop,
)
from repro.live.runtime import LiveNodeSpec
from repro.live.supervisor import (
    LiveConfig,
    LiveSupervisor,
    audit_pairs,
    build_live_report,
    live_config_key,
)
from repro.obs.journal import NULL_JOURNAL


#: The CI ``live-smoke`` job's gate; the seeded run below clears it on
#: every Python the suite runs on.
GATE = 0.9


@pytest.fixture(scope="module")
def crash_report(tmp_path_factory):
    """One shared overlay run: 8 nodes, 20 s, one hard kill at t=5.

    Eight nodes, not fewer: tiny overlays with crashes are noisy (one node
    is a large fraction of the pair space).  The virtual clock makes the
    run deterministic, so one run decides.
    """
    store = SummaryStore(tmp_path_factory.mktemp("live-store"))
    config = LiveConfig(
        nodes=8,
        duration=20.0,
        seed=3,
        protocol_period=0.8,
        monitoring_period=0.8,
        ping_timeout=0.35,
        forgetful_tau=1.6,
        sample_interval=2.0,
        heartbeat_interval=0.4,
        introducer_ttl=2.5,
        crash_after=5.0,
        crash_downtime=1.5,
        control_port=-1,
    )
    report = MemoryOverlay(config, store=store).run()
    return config, store, report


def test_overlay_survives_crash_and_rediscovers(crash_report):
    _config, _store, report = crash_report
    assert report.crashes == 1
    assert len(report.crash_victims) == 1
    # The overlay re-discovered the victim's monitors before teardown.
    assert report.victim_recovery is not None
    assert report.victim_recovery >= GATE
    # All eight nodes answered the final scrape (the victim rejoined).
    assert report.final_alive == 8
    assert sorted(report.statuses) == list(range(8))


def test_discovery_reaches_optimal_relationships(crash_report):
    _config, _store, report = crash_report
    assert report.expected_pairs > 0
    assert report.discovery_ratio >= GATE


def test_no_consistency_violations(crash_report):
    _config, _store, report = crash_report
    assert report.violations == 0


def test_summary_persisted_and_readable(crash_report):
    config, store, report = crash_report
    assert report.store_path is not None
    # The content address is the documented one: hash of live_config_key.
    assert report.store_path.endswith(
        SummaryStore.name_for(live_config_key(config))
    )
    loaded = store.load(live_config_key(config))
    assert loaded is not None
    assert loaded.model == "LIVE"
    assert loaded.n == config.nodes
    # The standard accessors the report tooling uses work unchanged.
    assert loaded.average_discovery_time() >= 0.0
    assert loaded.memory_values(control_only=True)
    assert loaded.to_json() == report.summary.to_json()


def test_summary_series_are_sane(crash_report):
    config, _store, report = crash_report
    summary = report.summary
    assert summary.control_count == config.nodes
    assert summary.final_alive == config.nodes
    assert summary.window_seconds == config.duration
    assert len(summary.memory_control) == config.nodes
    assert all(value > 0 for value in summary.bandwidth)
    delays = summary.first_monitor_delays()
    assert delays and all(0.0 <= d <= config.duration + 5.0 for d in delays)


def test_crash_after_must_fall_inside_run():
    with pytest.raises(ValueError):
        LiveConfig(nodes=4, duration=5.0, crash_after=9.0)
    with pytest.raises(ValueError):
        LiveConfig(nodes=1, duration=5.0)
    # The AVMON parameters are checked when the config is built: the ping
    # timeout must be shorter than both 1 s periods.
    with pytest.raises(ValueError, match="ping_timeout"):
        LiveConfig(ping_timeout=2.0)


def test_node_spec_carries_the_deployments_avmon_config_through_json():
    config = LiveConfig(nodes=6, k=2, protocol_period=0.5, ping_timeout=0.2)
    spec = config.node_spec(
        4,
        ("127.0.0.1", 7000),
        epoch=12.5,
        state_file="node-4.json",
        host="127.0.0.1",
        introducers=[("127.0.0.1", 7000), ("127.0.0.1", 7001)],
    )
    assert spec.avmon == config.avmon()
    assert (spec.avmon.n_expected, spec.avmon.k) == (6, 2)
    assert LiveNodeSpec.from_json(spec.to_json()) == spec


def test_unusable_state_dir_fails_cleanly():
    """A bad --state-dir is a clean RuntimeError (and teardown still runs),
    not a raw OSError traceback with leaked transports."""
    config = LiveConfig(nodes=2, duration=2.0, state_dir="/dev/null/nope")

    async def scenario():
        supervisor = LiveSupervisor(config)
        with pytest.raises(RuntimeError, match="state dir"):
            await supervisor.run()

    asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))


def test_a_node_dead_at_boot_reports_its_log_tail():
    """The boot error quotes the tail of each dead node's log, read before
    teardown removes the temp state dir that holds the logs."""

    class DeadOnArrival(MemoryFabric):
        async def spawn(self, spec):
            log = pathlib.Path(spec.state_file).with_suffix(".log")
            noise = "".join(f"noise {i}\n" for i in range(40))
            early = "x" * 100_000 + "\n"  # past the 2 KiB that is read
            log.write_text(f"{early}{noise}boom: node {spec.node} cannot bind\n")
            return spec.node

        def exited(self, process):
            return True

        async def kill(self, process, *, graceful):
            pass

    config = LiveConfig(nodes=2, duration=2.0, control_port=-1)
    with asyncio.Runner(loop_factory=VirtualEventLoop) as runner:
        fabric = DeadOnArrival(runner.get_loop(), NULL_JOURNAL)
        supervisor = LiveSupervisor(config, fabric=fabric)
        with pytest.raises(RuntimeError) as caught:
            runner.run(supervisor.run())
    message = str(caught.value)
    assert message.startswith("node process(es) [0, 1] exited during boot")
    assert "boom: node 0 cannot bind" in message
    assert "boom: node 1 cannot bind" in message
    # Twenty lines per node: "noise 21" .. "noise 39" and the boom line.
    assert "noise 21" in message and "noise 20" not in message
    assert not supervisor._state_dir.exists()


def test_empty_scrape_reports_zero_discovery():
    """expected_pairs == 0 from a dead overlay must read as 0% discovered,
    not a vacuous 100% (the CI gate's whole purpose)."""
    report = build_live_report(
        LiveConfig(nodes=4, duration=2.0, control_port=-1),
        ConsistencyCondition(2, 4),
        {},
        crash_victims=[],
        final_alive=0,
        elapsed=1.0,
        join_times={},
        life_seconds=lambda node: 0.0,
        memory_series={},
        n_longterm=0,
    )
    assert report.expected_pairs == 0
    assert report.discovery_ratio == 0.0


def _audit_oracle(condition, statuses, victims):
    """The audit by brute force: list every pair, then count."""
    nodes = list(statuses)
    pairs = [
        (m, t) for t in nodes for m in nodes if m != t and condition.holds(m, t)
    ]
    found = [(m, t) for m, t in pairs if m in dict(statuses[t].ps)]
    violations = sum(
        not condition.holds(m, t) for t in nodes for m, _ in statuses[t].ps
    ) + sum(not condition.holds(t, x) for t in nodes for x in statuses[t].ts)
    victim_pairs = [pair for pair in pairs if set(pair) & set(victims)]
    victim_found = [pair for pair in found if set(pair) & set(victims)]
    recovery = len(victim_found) / len(victim_pairs) if victim_pairs else None
    return len(found), len(pairs), violations, recovery


def test_audit_matches_brute_force_oracle():
    """Hand-built scrapes: every other true monitor reported, one PS and
    one TS entry that fail the condition, and several victim sets."""
    condition = ConsistencyCondition(3, 8)
    nodes = range(8)
    monitors = {t: [m for m in nodes if condition.holds(m, t)] for t in nodes}
    liar = next(m for m in nodes if m != 0 and not condition.holds(m, 0))
    stray = next(x for x in nodes if x != 1 and not condition.holds(1, x))
    statuses = {}
    for t in nodes:
        ps = [(m, 1.0) for m in monitors[t][::2]] + ([(liar, 2.0)] if t == 0 else [])
        ts = [x for x in nodes if condition.holds(t, x)] + ([stray] if t == 1 else [])
        statuses[t] = StatusReply(node=t, ps=tuple(ps), ts=tuple(ts))
    for victims in ((), (2,), (2, 5), (99,)):
        audit = audit_pairs(condition, statuses, victims)
        assert audit == _audit_oracle(condition, statuses, victims), victims
    discovered, expected, violations, recovery = audit_pairs(condition, statuses)
    assert 0 < discovered < expected
    assert violations == 2
    assert recovery is None
    assert audit_pairs(condition, statuses, (99,))[3] is None
    assert 0.0 < audit_pairs(condition, statuses, (2, 5))[3] < 1.0


def test_unknown_churn_component_fails_fast():
    config = LiveConfig(nodes=2, duration=2.0, churn="NO-SUCH-MODEL")

    async def scenario():
        supervisor = LiveSupervisor(config)
        with pytest.raises(ValueError):
            await supervisor.run()

    asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))
