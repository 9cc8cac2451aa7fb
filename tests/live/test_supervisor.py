"""The supervisor end to end: real processes, a real crash, real recovery.

This is the backing test of the CI ``live-smoke`` job: boot a small
localhost overlay of OS processes, SIGKILL one node mid-run, and assert
the overlay re-discovers the victim's monitor relationships before
teardown — with the summary flowing into the standard store.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.condition import ConsistencyCondition
from repro.experiments.store import SummaryStore
from repro.live.supervisor import (
    LiveConfig,
    LiveSupervisor,
    build_live_report,
    live_config_key,
    live_store_filename,
    run_live,
)


#: Looser than the CI smoke job's 0.9: this fixture runs inside the full
#: pytest suite, often on a loaded single-core runner where scheduler
#: stalls eat protocol rounds.  The dedicated `live-smoke` CI job gates
#: the strict >= 0.9 on an uncontended overlay.
GATE = 0.8


@pytest.fixture(scope="module")
def crash_report(tmp_path_factory):
    """One shared overlay run: 8 processes, 20 s, one SIGKILL at t=5.

    Eight nodes, not fewer: tiny overlays with crashes are noisy (one node
    is a large fraction of the pair space).  Periods and timeouts are
    chosen for contended machines — 0.8 s rounds with a 0.35 s reply
    budget survive the scheduling jitter of a busy test runner.

    Wall-clock runs inside a full pytest suite on a loaded (often
    single-core) runner can still lose most protocol rounds to scheduler
    stalls, so the run is retried up to three times and the first attempt
    clearing the gates is used; a systematic regression fails all three.
    The dedicated CI `live-smoke` job gates a single uncontended run
    strictly at 0.9.
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
    report = None
    for _attempt in range(3):
        report = run_live(config, store=store)
        if (
            report.discovery_ratio >= GATE
            and (report.victim_recovery or 0.0) >= GATE
            and report.final_alive == config.nodes
        ):
            break
    return config, store, report


def test_overlay_survives_crash_and_rediscovers(crash_report):
    _config, _store, report = crash_report
    assert report.crashes == 1
    assert len(report.crash_victims) == 1
    # The overlay re-discovered the victim's monitors before teardown.
    assert report.victim_recovery is not None
    assert report.victim_recovery >= GATE
    # All eight processes answered the final scrape (the victim rejoined).
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
    assert report.store_path.endswith(live_store_filename(config))
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


def test_unusable_state_dir_fails_cleanly():
    """A bad --state-dir is a clean RuntimeError (and teardown still runs),
    not a raw OSError traceback with leaked transports."""
    config = LiveConfig(nodes=2, duration=2.0, state_dir="/dev/null/nope")

    async def scenario():
        supervisor = LiveSupervisor(config)
        with pytest.raises(RuntimeError, match="state dir"):
            await supervisor.run()

    asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))


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


def test_unknown_churn_component_fails_fast():
    config = LiveConfig(nodes=2, duration=2.0, churn="NO-SUCH-MODEL")

    async def scenario():
        supervisor = LiveSupervisor(config)
        with pytest.raises(ValueError):
            await supervisor.run()

    asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))
