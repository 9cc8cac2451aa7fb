"""Differential oracle for held-NOTIFY elision.

The simulated network skips queueing a NOTIFY whose receiving
``AvmonNode`` already holds the pair (``repro.net.network``'s module
docstring).  Every run here is made twice: as shipped, and with every node
an ``AvmonNode`` subclass, which the network never elides for, so every
NOTIFY is queued, popped and handled as a plain event.  Everything the
run reports must agree: the summary bytes, the event and message counts,
each node's accountant entry, PS, TS and computations, and the engine's
``events_processed`` gauge at every window edge.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.core.config import AvmonConfig
from repro.core.node import AvmonNode
from repro.experiments import runner
from repro.experiments.runner import SimulationConfig, run_simulation
from repro.live.faults import FaultPlan
from repro.obs import MetricsRegistry
from repro.sim.engine import Simulator


class QueuedAvmonNode(AvmonNode):
    """An AVMON node whose NOTIFYs are all queued (its class is not
    ``AvmonNode``, so the network never asks it whether it holds a pair)."""


def _windowed(edges, registry, samples):
    """A ``Simulator.run_until`` that stops at each edge to sample the gauge."""
    run_until = Simulator.run_until

    def run_in_windows(sim, end_time):
        for edge in edges:
            if sim.now < edge < end_time:
                run_until(sim, edge)
                snapshot = registry.deterministic_snapshot()
                samples.append((edge, snapshot["sim.engine.events_processed"]))
        run_until(sim, end_time)

    return run_in_windows


def observe(config, *, elide, edges=()):
    """Run *config* and return everything the two variants must agree on."""
    registry = MetricsRegistry()
    samples = []
    node_class = AvmonNode if elide else QueuedAvmonNode
    with mock.patch.object(runner, "AvmonNode", node_class), mock.patch.object(
        Simulator, "run_until", _windowed(edges, registry, samples)
    ):
        result = run_simulation(config, obs=registry)
    network = result.network
    accountant = network.accountant
    nodes = result.cluster.nodes
    assert all(node.__class__ is node_class for node in nodes.values())
    return {
        "summary": result.summary().to_json(),
        "events": result.events_processed,
        "sent": network.sent_messages,
        "fault_dropped": network.fault_dropped,
        "bytes": {
            node: (accountant.bytes_out(node), accountant.messages_out(node))
            for node in accountant.nodes()
        },
        "nodes": {
            node_id: (dict(node.ps), sorted(node.ts), node.computations)
            for node_id, node in nodes.items()
        },
        "samples": samples,
    }


@st.composite
def fault_plans(draw):
    # A JOIN whose origin the receiver already holds is forwarded with its
    # weight intact, so a duplicated JOIN walk forks: unless
    # (1 - loss) * (1 + duplicate) < 1, JOINs grow without bound.
    loss, duplicate = draw(st.sampled_from([(0.1, 0.0), (0.2, 0.1), (0.3, 0.3)]))
    return FaultPlan(
        loss=loss,
        duplicate=duplicate,
        jitter=draw(st.sampled_from([0.0, 0.05])),
        reorder=draw(st.sampled_from([0.0, 0.2])),
        seed=draw(st.integers(0, 3)),
    )


@st.composite
def configs(draw):
    n = draw(st.integers(min_value=12, max_value=24))
    avmon = dataclasses.replace(
        AvmonConfig.paper_defaults(n),
        enable_pr2=draw(st.booleans()),
        enable_forgetful=draw(st.booleans()),
    )
    return SimulationConfig(
        model=draw(st.sampled_from(["STAT", "SYNTH"])),
        n=n,
        warmup=300.0,
        duration=900.0,
        sample_interval=120.0,
        seed=draw(st.integers(min_value=1, max_value=50)),
        churn_per_hour=draw(st.sampled_from([0.2, 3.0])),
        overreport_fraction=draw(st.sampled_from([0.0, 0.25])),
        avmon=avmon,
        fault=draw(st.none() | fault_plans()),
    )


@settings(max_examples=10)
@given(configs(), st.integers(0, 400), st.floats(0.0, 1.0))
def test_eliding_held_notifies_changes_nothing_observable(config, windows, phase):
    # Hundreds of window edges, so some fall while elided NOTIFYs are in
    # flight (without faults, an exchange's NOTIFYs fly for at most 100 ms).
    step = config.duration / (windows + 1)
    edges = [step * (index + phase) for index in range(1, windows + 1)]
    shipped = observe(config, elide=True, edges=edges)
    oracle = observe(config, elide=False, edges=edges)
    assert shipped == oracle


def test_oracle_variant_queues_every_notify():
    # The oracle is only an oracle if it really takes the old path: for the
    # same event count, the shipped run draws fewer heap sequence numbers.
    config = SimulationConfig(
        model="SYNTH", n=20, warmup=300.0, duration=900.0, seed=3
    )
    runs = {}
    for node_class in (AvmonNode, QueuedAvmonNode):
        with mock.patch.object(runner, "AvmonNode", node_class):
            result = run_simulation(config)
        queued = next(result.cluster.sim._counter)
        runs[node_class] = (result.events_processed, queued)
    assert runs[AvmonNode][0] == runs[QueuedAvmonNode][0]
    assert runs[AvmonNode][1] < runs[QueuedAvmonNode][1]
