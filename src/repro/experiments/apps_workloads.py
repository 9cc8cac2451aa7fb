"""The Section-1 application workloads as runnable experiments.

The paper motivates availability monitoring with three consumers: network
queries for a node's availability (§3.3's full report/verify/aggregate
flow), availability-aware replica placement, and availability prediction
from monitored histories.  :mod:`repro.apps` implements the application
logic; this module packages each one as an ``experiment`` component —
registered in :mod:`repro.registry` like every figure — so they show up in
``avmon list --json`` and run through ``avmon run app_query`` and friends.

Unlike the figure experiments these need *live* node objects (monitor
stores, in-sim message exchange), which the flat summary cache cannot
carry, so each run simulates its base scenario directly rather than
priming the shared summary store.
"""

from __future__ import annotations

import random
from typing import List

from ..apps.prediction import (
    PeriodicPredictor,
    SaturatingCounterPredictor,
    hit_rate,
)
from ..apps.query import QueryClient, QueryResult
from ..apps.replication import compare_policies
from ..metrics import stats
from ..net.network import SimHost
from .report import format_kv, format_table
from .runner import run_simulation
from .scenarios import scenario

__all__ = ["run_query", "run_replication", "run_prediction"]

#: Per-scale base population for the app workloads.
_APP_N = {"paper": 400, "bench": 100, "test": 40}


def _base_result(scale: str, *, churn_per_hour: float = 2.0, seed: int = 11):
    """A churned SYNTH run whose monitors observe many up/down cycles."""
    config = scenario(
        "SYNTH",
        _APP_N.get(scale, 100),
        scale,
        seed=seed,
        churn_per_hour=churn_per_hour,
    )
    return run_simulation(config)


def run_query(scale: str = "bench") -> str:
    """§3.3 end to end: report -> verify -> per-monitor history -> aggregate.

    Attaches a :class:`~repro.apps.query.QueryClient` to the finished
    simulation's network (the simulator keeps running, churn and all) and
    queries a sample of alive nodes for their availability.
    """
    result = _base_result(scale)
    cluster = result.cluster
    network = result.network
    sim = cluster.sim
    condition = cluster.relation.condition

    client_id = max(cluster.nodes) + 1009
    host = SimHost(network, client_id, random.Random(4242))
    client = QueryClient(
        client_id, condition, host, min_monitors=1, timeout=30.0
    )
    host.attach(client)
    host.bring_up()

    rng = random.Random(99)
    alive = [n for n in network.alive_ids() if n in cluster.nodes]
    subjects = rng.sample(alive, min(25, len(alive)))
    results: List[QueryResult] = []
    for index, subject in enumerate(subjects):
        sim.schedule(0.5 * index, lambda s=subject: client.query(s, results.append))
    sim.run_until(sim.now + 0.5 * len(subjects) + 35.0)

    satisfied = [r for r in results if r.policy_satisfied]
    complete = [r for r in results if r.complete]
    errors = []
    for entry in satisfied:
        truth = cluster.true_availability(
            entry.subject,
            cluster.first_join_time(entry.subject) or 0.0,
            result.config.duration,
        )
        errors.append(abs(entry.availability - truth))
    return format_kv(
        [
            ("queries issued", len(subjects)),
            ("replies received", len(results)),
            ("policy satisfied (>= l verified monitors)", len(satisfied)),
            ("fully answered (every monitor reported)", len(complete)),
            (
                "mean verified monitors per query",
                stats.mean([len(r.verified_monitors) for r in results])
                if results
                else 0.0,
            ),
            (
                "reported monitors failing verification",
                sum(len(r.rejected_monitors) for r in results),
            ),
            ("mean |estimate - truth|", stats.mean(errors) if errors else 0.0),
        ]
    )


def run_replication(scale: str = "bench") -> str:
    """Availability-aware vs random replica placement over audited reports."""
    result = _base_result(scale)
    audits = result.availability_audit(control_only=False)
    measured = {node: estimate for node, (estimate, _) in audits.items()}
    if not measured:
        return "(no audited nodes; run a larger scale)"
    rng = random.Random(7)
    rows = []
    for count in (2, 3, 5):
        smart, random_score = compare_policies(measured, count, rng)
        smart_miss = max(1e-9, 1.0 - smart.availability)
        rows.append(
            (
                count,
                smart.availability,
                random_score,
                (1.0 - random_score) / smart_miss,
            )
        )
    table = format_table(
        ("replicas", "smart P(>=1 up)", "random P(>=1 up)", "unavail. shrink"),
        rows,
    )
    return (
        f"audited {len(measured)} nodes via their verified monitors\n" + table
    )


def run_prediction(scale: str = "bench") -> str:
    """Train the two classic predictors on monitors' raw sample histories."""
    result = _base_result(scale)
    counter_scores: List[float] = []
    lastvalue_scores: List[float] = []
    periodic_scores: List[float] = []
    streams = 0
    for node in result.cluster.nodes.values():
        for record in node.store.records():
            samples = getattr(record.history, "samples", lambda: ())()
            if len(samples) < 20:
                continue
            streams += 1
            split = int(len(samples) * 0.8)
            train, test = samples[:split], samples[split:]
            actual = [up for _, up in test]

            counter = SaturatingCounterPredictor(bits=2)
            counter.train([up for _, up in train])
            predictions = []
            for _, up in test:
                predictions.append(counter.predict())
                counter.observe(up)
            counter_scores.append(hit_rate(predictions, actual))

            last = SaturatingCounterPredictor(bits=1)
            last.train([up for _, up in train])
            predictions = []
            for _, up in test:
                predictions.append(last.predict())
                last.observe(up)
            lastvalue_scores.append(hit_rate(predictions, actual))

            periodic = PeriodicPredictor(cycle=3600.0, buckets=12)
            periodic.train(train)
            periodic_scores.append(
                hit_rate([periodic.predict(t) for t, _ in test], actual)
            )
    if not streams:
        return "(no monitor observed enough samples; run a larger scale)"
    return format_kv(
        [
            ("monitored sample streams", streams),
            ("saturating counter (2-bit) hit rate", stats.mean(counter_scores)),
            ("last-value (1-bit) hit rate", stats.mean(lastvalue_scores)),
            ("periodic (diurnal) hit rate", stats.mean(periodic_scores)),
        ]
    )
