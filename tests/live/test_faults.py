"""FaultPlan/FaultInjector: serialisation, determinism, keys, registry.

ISSUE tentpole: the fault layer is declarative data (JSON round trips,
stable cache-key participation), a registered ``fault`` component kind,
and a deterministic decision engine shared by every fabric.
"""

from __future__ import annotations

import hashlib
import json
import random
import warnings

import pytest

from repro.api import Scenario
from repro.core.config import AvmonConfig
from repro.experiments.store import config_key, stable_key_hash
from repro.live.faults import (
    INTRODUCER,
    SUPERVISOR,
    FaultInjector,
    FaultPlan,
    LinkFault,
    Partition,
    _label_token,
    introducer_label,
    is_introducer_label,
    parse_partition_groups,
)
from repro.live.supervisor import LiveConfig, LiveSupervisor, live_config_key
from repro.registry import component_names, create, is_registered


# -- serialisation -----------------------------------------------------------


def full_plan() -> FaultPlan:
    return FaultPlan(
        loss=0.1,
        latency=0.02,
        jitter=0.01,
        duplicate=0.03,
        reorder=0.2,
        reorder_window=0.07,
        links=(
            LinkFault(src=1, dst="*", loss=0.5),
            LinkFault(src="*", dst=SUPERVISOR, latency=0.1, jitter=0.0),
        ),
        partitions=(
            Partition(groups=((0, 1, INTRODUCER), (2, 3)), start=1.0, end=5.0),
            Partition(groups=((0,), (1,)), start=8.0, end=-1.0),
        ),
        seed=42,
    )


def test_json_round_trip():
    plan = full_plan()
    assert FaultPlan.from_json(plan.to_json()) == plan


def test_dict_round_trip_with_nested_dicts():
    # from_dict must accept plain-JSON nesting (dicts, lists), as produced
    # by to_dict()/json.loads, not only dataclass instances.
    plan = full_plan()
    payload = json.loads(plan.to_json())
    assert isinstance(payload["links"][0], dict)
    assert FaultPlan.from_dict(payload) == plan


def test_default_plan_is_null_and_round_trips():
    plan = FaultPlan()
    assert plan.is_null()
    assert FaultPlan.from_json(plan.to_json()) == plan
    assert not FaultPlan(loss=0.01).is_null()
    assert not FaultPlan(partitions=(Partition(groups=((0,), (1,))),)).is_null()
    # A seed alone perturbs nothing.
    assert FaultPlan(seed=99).is_null()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"loss": -0.1},
        {"loss": 1.5},
        {"duplicate": 2.0},
        {"reorder": -1.0},
        {"latency": -0.5},
        {"jitter": -0.01},
        {"reorder_window": -1.0},
    ],
)
def test_invalid_parameters_rejected(kwargs):
    with pytest.raises(ValueError):
        FaultPlan(**kwargs)


def test_unknown_fields_rejected():
    with pytest.raises(ValueError, match="unknown FaultPlan fields"):
        FaultPlan.from_dict({"loses": 0.5})
    with pytest.raises(ValueError):
        FaultPlan.from_json("[1, 2]")


# -- cache-key participation -------------------------------------------------


def test_plan_key_is_stable_and_distinct():
    a = stable_key_hash(full_plan().key())
    b = stable_key_hash(full_plan().key())
    assert a == b
    assert stable_key_hash(full_plan().with_params(loss=0.2).key()) != a
    assert stable_key_hash(full_plan().with_params(seed=43).key()) != a


def test_simulation_config_key_backwards_compatible():
    base = Scenario(model="SYNTH", n=40, scale="test")
    plain = stable_key_hash(config_key(base.to_config()))
    null = stable_key_hash(
        config_key(base.with_params(fault="NONE").to_config())
    )
    lossy = stable_key_hash(
        config_key(base.with_params(fault="LOSSY").to_config())
    )
    # Fault-free scenarios keep the exact pre-fault address; faulty ones
    # get their own cells.
    assert plain == null
    assert plain != lossy


def test_scenario_fault_round_trips_and_seeds_from_scenario():
    scenario = Scenario(
        model="SYNTH",
        n=40,
        scale="test",
        seed=9,
        fault="LOSSY",
        fault_params={"loss": 0.25},
    )
    restored = Scenario.from_json(scenario.to_json())
    assert restored == scenario
    config = restored.to_config()
    assert config.fault is not None
    assert config.fault.loss == 0.25
    assert config.fault.seed == 9  # defaults to the scenario seed
    # Different seeds are different cells (the fault stream is part of the
    # run's identity).
    other = stable_key_hash(config_key(scenario.with_params(seed=10).to_config()))
    assert stable_key_hash(config_key(config)) != other


def test_scenario_fault_params_without_name_rejected():
    with pytest.raises(ValueError, match="fault_params"):
        Scenario(
            model="SYNTH", n=40, scale="test", fault_params={"loss": 0.5}
        ).to_config()


def test_live_config_key_includes_fault_plan():
    base = LiveConfig(nodes=6, duration=5.0)
    plain = stable_key_hash(live_config_key(base))
    lossy = stable_key_hash(
        live_config_key(
            LiveConfig(nodes=6, duration=5.0, fault="LOSSY")
        )
    )
    none = stable_key_hash(
        live_config_key(LiveConfig(nodes=6, duration=5.0, fault="NONE"))
    )
    assert plain == none
    assert plain != lossy


# -- registry ----------------------------------------------------------------


def test_fault_component_kind_registered():
    names = component_names("fault")
    assert {"NONE", "LOSSY", "WAN", "FLAKY"} <= set(names)
    assert is_registered("fault", "lossy")  # case/sep-insensitive lookup
    assert create("fault", "NONE").is_null()
    assert create("fault", "LOSSY").loss == 0.1
    assert create("fault", "LOSSY", loss=0.3).loss == 0.3
    wan = create("fault", "WAN")
    assert wan.latency > 0.0 and wan.jitter > 0.0


# -- injector determinism ----------------------------------------------------


def test_identical_plans_produce_identical_decision_streams():
    plan = FaultPlan(loss=0.3, jitter=0.01, duplicate=0.1, seed=7)
    a, b = FaultInjector(plan), FaultInjector(plan)
    decisions_a = [a.plan_delivery(1, 2, 0.0) for _ in range(200)]
    decisions_b = [b.plan_delivery(1, 2, 0.0) for _ in range(200)]
    assert decisions_a == decisions_b
    assert a.stats.as_dict() == b.stats.as_dict()


def test_link_streams_are_independent_of_interleaving():
    plan = FaultPlan(loss=0.3, seed=7)
    solo = FaultInjector(plan)
    expected = [solo.plan_delivery(1, 2, 0.0) for _ in range(100)]
    mixed = FaultInjector(plan)
    observed = []
    for i in range(100):
        # Traffic on other links between every decision must not disturb
        # the (1, 2) stream.
        mixed.plan_delivery(3, 4, 0.0)
        observed.append(mixed.plan_delivery(1, 2, 0.0))
        mixed.plan_delivery(2, 1, 0.0)
    assert observed == expected


def test_seed_changes_the_stream():
    a = FaultInjector(FaultPlan(loss=0.5, seed=1))
    b = FaultInjector(FaultPlan(loss=0.5, seed=2))
    assert [a.plan_delivery(0, 1, 0.0) for _ in range(64)] != [
        b.plan_delivery(0, 1, 0.0) for _ in range(64)
    ]


def test_loss_rate_is_respected():
    injector = FaultInjector(FaultPlan(loss=0.25, seed=3))
    outcomes = [injector.plan_delivery(0, 1, 0.0) for _ in range(4000)]
    dropped = sum(1 for o in outcomes if not o)
    assert 0.2 < dropped / len(outcomes) < 0.3


def test_duplicates_and_delays():
    injector = FaultInjector(
        FaultPlan(latency=0.05, jitter=0.01, duplicate=1.0, seed=1)
    )
    deliveries = injector.plan_delivery(0, 1, 0.0)
    assert len(deliveries) == 2
    assert all(0.05 <= d <= 0.06 for d in deliveries)
    assert injector.stats.duplicated == 1


def test_null_plan_passes_everything_instantly():
    injector = FaultInjector(FaultPlan())
    assert injector.plan_delivery(0, 1, 0.0) == (0.0,)
    assert injector.plan_delivery(None, None, 123.0) == (0.0,)
    assert injector.stats.dropped == 0


# -- link rules and partitions ----------------------------------------------


def test_link_rule_overrides_global_parameters():
    plan = FaultPlan(
        loss=0.0, links=(LinkFault(src=1, dst=2, loss=1.0),), seed=5
    )
    injector = FaultInjector(plan)
    assert injector.plan_delivery(1, 2, 0.0) == ()  # rule: always lost
    assert injector.plan_delivery(2, 1, 0.0) == (0.0,)  # reverse unaffected
    assert injector.plan_delivery(1, 3, 0.0) == (0.0,)


def test_link_rule_wildcards():
    plan = FaultPlan(links=(LinkFault(src="*", dst=SUPERVISOR, loss=1.0),))
    injector = FaultInjector(plan)
    assert injector.plan_delivery(4, SUPERVISOR, 0.0) == ()
    assert injector.plan_delivery(SUPERVISOR, 4, 0.0) == (0.0,)


def test_partition_windows_and_groups():
    plan = FaultPlan(
        partitions=(
            Partition(groups=((0, 1), (2, 3)), start=2.0, end=6.0),
        )
    )
    injector = FaultInjector(plan)
    assert injector.plan_delivery(0, 2, 1.0) == (0.0,)  # before
    assert injector.plan_delivery(0, 2, 2.0) == ()  # during
    assert injector.plan_delivery(0, 1, 3.0) == (0.0,)  # same group
    assert injector.plan_delivery(2, 3, 3.0) == (0.0,)
    assert injector.plan_delivery(3, 1, 5.9) == ()
    assert injector.plan_delivery(0, 2, 6.0) == (0.0,)  # healed
    # Unlabelled / ungrouped endpoints pass through.
    assert injector.plan_delivery(None, 2, 3.0) == (0.0,)
    assert injector.plan_delivery(9, 2, 3.0) == (0.0,)
    assert injector.stats.partitioned == 2


def test_partition_never_heals_with_negative_end():
    plan = FaultPlan(partitions=(Partition(groups=((0,), (1,)), end=-1.0),))
    injector = FaultInjector(plan)
    assert injector.plan_delivery(0, 1, 1e9) == ()


def test_parse_partition_groups():
    assert parse_partition_groups("0,1,2|3,4") == ((0, 1, 2), (3, 4))
    assert parse_partition_groups("0,supervisor | 1") == (
        (0, "supervisor"),
        (1,),
    )
    assert parse_partition_groups("0,INTRODUCER|1") == ((0, "introducer"), (1,))
    with pytest.raises(ValueError):
        parse_partition_groups("0,1,2")
    with pytest.raises(ValueError):
        parse_partition_groups("")
    # A typo'd node id must be rejected, not become an inert string label.
    with pytest.raises(ValueError, match="unknown partition member 'O'"):
        parse_partition_groups("O,1|2,3")
    # Negative "ids" match no node either.
    with pytest.raises(ValueError, match="unknown partition member '-2'"):
        parse_partition_groups("0,1|-2,3")


def test_introducer_replica_labels():
    # Replica 0 keeps the historical bare label so existing plans (and
    # stored cache keys) that name "introducer" still hit the primary.
    assert introducer_label(0) == INTRODUCER
    assert introducer_label(1) == "introducer-1"
    assert introducer_label(12) == "introducer-12"
    with pytest.raises(ValueError):
        introducer_label(-1)
    assert is_introducer_label(INTRODUCER)
    assert is_introducer_label("introducer-2")
    assert not is_introducer_label("introducer-")
    assert not is_introducer_label("introducer-x")
    assert not is_introducer_label(SUPERVISOR)
    assert not is_introducer_label(0)
    # Plans can sever an individual replica by its label.
    assert parse_partition_groups("0,introducer-1|1,2") == (
        (0, "introducer-1"),
        (1, 2),
    )


# -- runtime plan push -------------------------------------------------------


def test_fault_update_dispatch_forwards_once_and_is_idempotent():
    """The first push reaches the transport (memory hub included), a
    repeat of the current plan is a no-op (re-broadcasts must not reset
    decision streams), and a malformed plan is ignored."""
    from repro.live.control import FaultUpdate
    from repro.live.runtime import LiveNode, LiveNodeSpec

    class StubTransport:
        def __init__(self):
            self.plans = []

        def set_fault_plan(self, plan):
            self.plans.append(plan)

    node = LiveNode(
        LiveNodeSpec(
            node=1, introducer_host="h", introducer_port=1,
            avmon=AvmonConfig(
                n_expected=4, k=2, cvs=3, protocol_period=1.0,
                monitoring_period=1.0, ping_timeout=0.25, forgetful_tau=2.0,
            ),
        )
    )
    node.transport = StubTransport()
    lossy = FaultPlan(loss=0.5, seed=1).to_json()
    node._handle(FaultUpdate(plan=lossy), ("mem", 9))
    assert len(node.transport.plans) == 1  # first push applied
    node._handle(FaultUpdate(plan=lossy), ("mem", 9))
    assert len(node.transport.plans) == 1  # repeat: no-op
    node._handle(FaultUpdate(plan="{not json"), ("mem", 9))
    assert len(node.transport.plans) == 1  # garbage: ignored
    node._handle(FaultUpdate(plan=""), ("mem", 9))
    assert len(node.transport.plans) == 2  # heal applied
    assert node.transport.plans[-1].is_null()


def test_supervisor_rejects_malformed_plan_push():
    supervisor = LiveSupervisor(LiveConfig(nodes=4, duration=5.0))
    assert supervisor.push_fault_plan("{not json") == -1
    assert supervisor.push_fault_plan('{"loses": 1}') == -1
    assert supervisor.push_fault_plan('[1, 2]', merge=True) == -1
    assert supervisor.push_fault_plan('{"loss": 1.5}', merge=True) == -1
    # With no overlay up there is nobody to push to, but the plan sticks
    # for future spawns.
    assert supervisor.push_fault_plan("") == 0


def test_supervisor_merge_push_preserves_other_plan_components():
    """`--partition` on a `--fault WAN` overlay must keep the WAN loss."""
    supervisor = LiveSupervisor(
        LiveConfig(nodes=4, duration=5.0, fault="WAN")
    )
    wan = LiveConfig(nodes=4, duration=5.0, fault="WAN").resolved_fault_plan()
    assert supervisor._fault_json == wan.to_json()
    groups = [[0, 1], [2, 3]]
    assert (
        supervisor.push_fault_plan(
            json.dumps({"partitions": [{"groups": groups}]}), merge=True
        )
        >= 0
    )
    merged = FaultPlan.from_json(supervisor._fault_json)
    assert merged.loss == wan.loss  # WAN loss survives the partition push
    assert merged.latency == wan.latency
    assert merged.partitions[0].groups == ((0, 1), (2, 3))
    # A sparse loss update keeps the partition.
    assert supervisor.push_fault_plan(json.dumps({"loss": 0.5}), merge=True) >= 0
    merged = FaultPlan.from_json(supervisor._fault_json)
    assert merged.loss == 0.5
    assert merged.partitions and merged.latency == wan.latency
    # A non-merge empty push heals everything.
    assert supervisor.push_fault_plan("") == 0
    assert supervisor._fault_json == ""


def test_merge_push_of_seed_alone_survives_for_later_merges():
    """`chaos --fault-seed 7` then `chaos --loss 0.1` must run seed 7,
    not silently re-base from seed 0 (is_null ignores the seed, so the
    seed-only plan must not collapse to the empty string)."""
    supervisor = LiveSupervisor(LiveConfig(nodes=4, duration=5.0))
    assert supervisor.push_fault_plan(json.dumps({"seed": 7}), merge=True) >= 0
    assert supervisor._fault_json != ""
    assert supervisor.push_fault_plan(json.dumps({"loss": 0.1}), merge=True) >= 0
    merged = FaultPlan.from_json(supervisor._fault_json)
    assert merged.seed == 7
    assert merged.loss == 0.1


def test_set_plan_resets_decision_streams():
    injector = FaultInjector(FaultPlan(loss=0.5, seed=1))
    first = [injector.plan_delivery(0, 1, 0.0) for _ in range(32)]
    injector.set_plan(FaultPlan(loss=0.5, seed=1))
    assert [injector.plan_delivery(0, 1, 0.0) for _ in range(32)] == first


class _TokenKeyedInjector(FaultInjector):
    """The pre-PR-15 decision path, kept as the reference: partition and
    link scans on every datagram, the link stream found by rebuilding two
    label tokens."""

    def __init__(self, plan):
        super().__init__(plan)
        self._by_token = {}

    def _rng(self, src, dst):
        key = (_label_token(src), _label_token(dst))
        rng = self._by_token.get(key)
        if rng is None:
            text = json.dumps(
                [self.plan.seed, key[0], key[1]], separators=(",", ":")
            )
            digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
            rng = self._by_token[key] = random.Random(
                int.from_bytes(digest, "big")
            )
        return rng

    def plan_delivery(self, src, dst, now):
        plan = self.plan
        if plan.is_null():
            self.stats.passed += 1
            return (0.0,)
        if plan.partitioned(src, dst, now):
            self.stats.partitioned += 1
            return ()
        loss, latency, jitter, duplicate = plan.link_params(src, dst)
        rng = self._rng(src, dst)
        if loss > 0.0 and rng.random() < loss:
            self.stats.dropped += 1
            return ()
        copies = 1
        if duplicate > 0.0 and rng.random() < duplicate:
            copies = 2
            self.stats.duplicated += 1
        delays = []
        for _ in range(copies):
            delay = latency
            if jitter > 0.0:
                delay += rng.random() * jitter
            if plan.reorder > 0.0 and rng.random() < plan.reorder:
                delay += plan.reorder_window
            delays.append(delay)
        if any(delay > 0.0 for delay in delays):
            self.stats.delayed += 1
        self.stats.passed += 1
        return tuple(delays)


@pytest.mark.parametrize(
    "plan",
    [
        create("fault", "LOSSY", seed=3),
        create("fault", "WAN", seed=4),
        create("fault", "FLAKY", seed=5),
        FaultPlan(
            loss=0.05,
            jitter=0.01,
            seed=6,
            partitions=(
                Partition(groups=((0, 1, INTRODUCER), (2, 3, "serve")), start=2.0, end=6.0),
            ),
        ),
        full_plan(),
        FaultPlan(seed=9),  # null: nothing drawn, everything passes
    ],
    ids=["LOSSY", "WAN", "FLAKY", "partition", "links+partitions", "null"],
)
def test_decisions_match_the_token_keyed_reference_over_10k_sends(plan):
    """Same delays, same drops, same stats — so same RNG draw order — for
    interleaved int, string and unlabelled endpoints; 1, True and "1" are
    three different endpoints."""
    labels = [0, 1, 2, 3, 4, None, INTRODUCER, SUPERVISOR, "serve", "1", True]
    pick = random.Random(11)
    injector, reference = FaultInjector(plan), _TokenKeyedInjector(plan)
    for step in range(10_000):
        src, dst = pick.choice(labels), pick.choice(labels)
        now = step / 1000.0  # sweeps across the partition windows
        assert injector.plan_delivery(src, dst, now) == reference.plan_delivery(
            src, dst, now
        ), (step, src, dst)
        if step == 7_000:  # a pushed plan restarts every stream, memo included
            injector.set_plan(plan)
            reference.set_plan(plan)
            reference._by_token.clear()
    assert injector.stats.as_dict() == reference.stats.as_dict()


# -- CLI surface -------------------------------------------------------------


def test_cli_live_up_accepts_fault_arguments():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["live", "up", "--fault", "LOSSY", "--loss", "0.2", "--nodes", "4"]
    )
    assert args.fault == "LOSSY"
    assert args.loss == 0.2


def test_cli_live_chaos_accepts_fault_arguments():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["live", "chaos", "--loss", "0.1", "--partition", "0,1|2,3"]
    )
    assert args.loss == 0.1
    assert args.partition == "0,1|2,3"
    assert args.kill is None  # fault-only chaos kills nobody by default
    assert not args.heal
    heal = build_parser().parse_args(["live", "chaos", "--heal"])
    assert heal.heal


def test_cli_live_chaos_heal_conflicts_with_overrides(capsys):
    from repro.cli import main

    code = main(["live", "chaos", "--heal", "--loss", "0.5"])
    assert code == 2
    assert "--heal clears the whole plan" in capsys.readouterr().err


def test_cli_live_up_rejects_unknown_fault_component(capsys):
    from repro.cli import main

    code = main(["live", "up", "--fault", "NO-SUCH-PLAN", "--nodes", "4"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown fault component" in err
    assert "LOSSY" in err  # alternatives are listed


def test_cli_live_up_rejects_invalid_fault_params(capsys):
    from repro.cli import main

    code = main(["live", "up", "--loss", "1.5", "--nodes", "4"])
    assert code == 2
    err = capsys.readouterr().err
    assert "loss must be in [0, 1]" in err


# -- sim fabric --------------------------------------------------------------


def test_sim_network_applies_fault_plan():
    import random

    from repro.core.messages import CvPing
    from repro.net.network import Network, SimHost
    from repro.sim.engine import Simulator

    received = []

    class _Sink:
        def handle_message(self, message):
            received.append(message)

        def on_leave(self, now):
            pass

    sim = Simulator()
    injector = FaultInjector(FaultPlan(loss=1.0, seed=1))
    network = Network(sim, rng=random.Random(0), fault=injector)
    a = SimHost(network, 0, random.Random(1))
    b = SimHost(network, 1, random.Random(2))
    b.attach(_Sink())
    a.bring_up()
    b.bring_up()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        network.send(0, 1, CvPing(sender=0, seq=1))
    sim.run_until(10.0)
    assert received == []
    assert network.fault_dropped == 1
    # Heal and the same fabric delivers again.
    injector.set_plan(FaultPlan())
    network.send(0, 1, CvPing(sender=0, seq=2))
    sim.run_until(20.0)
    assert len(received) == 1
