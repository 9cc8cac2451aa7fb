"""Extension experiment: put numbers on the baseline critiques of Section 1.

Not a paper figure, but a direct quantification of the qualitative
arguments AVMON's introduction makes against the alternatives:

* **DHT-based selection** violates consistency — every churn event reshapes
  nearby replica sets — and randomness (3b): ring-adjacent monitors co-occur
  in many pinging sets.  AVMON's hash-based selection has *zero* churn
  disruption by construction.
* **Broadcast** ([11]) discovers instantly but pays O(N) messages per join
  versus AVMON's O(cvs) per period.
* **Central** concentrates the entire monitoring load on one host.
* **Self-reporting** lets selfish nodes claim arbitrary availability.
"""

from __future__ import annotations

import random

from ..baselines.central import CentralMonitorScheme
from ..baselines.dht import DhtMonitorScheme
from ..baselines.self_report import SelfReportScheme
from ..core.condition import ConsistencyCondition
from .report import format_kv

__all__ = ["compute", "render"]


def compute(n: int = 300, k: int = 8, churn_events: int = 100, seed: int = 11) -> dict:
    rng = random.Random(seed)
    population = list(range(n))

    # --- DHT: consistency + randomness violations under churn -----------------
    dht = DhtMonitorScheme(k)
    for node in population:
        dht.ring.join(node)
    monitored = population[: n // 2]
    dht.record_baseline(monitored)
    next_id = n
    alive = set(population)
    for _ in range(churn_events):
        if rng.random() < 0.5:
            dht.apply_churn_event(monitored, joined=next_id)
            alive.add(next_id)
            next_id += 1
        else:
            victim = rng.choice(sorted(alive - set(monitored)))
            dht.apply_churn_event(monitored, left=victim)
            alive.discard(victim)
    dht_changes = dht.total_monitor_changes()
    dht_cooccurrence = dht.max_cooccurrence(monitored)

    # --- AVMON: same churn cannot change any PS (consistency by construction) --
    condition = ConsistencyCondition(k, n)
    before = {node: _pinging_set(condition, node, next_id) for node in monitored}
    # Births extend the universe; existing membership never flips.
    after = {
        node: _pinging_set(condition, node, next_id + churn_events)
        for node in monitored
    }
    avmon_removed = sum(
        1 for node in monitored if not before[node] <= after[node]
    )
    avmon_cooccurrence = _max_cooccurrence(after.values())

    # --- Broadcast vs AVMON join cost -------------------------------------------
    from ..core import optimal

    avmon_cvs = optimal.cvs_paper_default(n)
    broadcast_join_messages = n
    avmon_join_messages = avmon_cvs  # JOIN spanning tree reaches ~cvs nodes

    # --- Central load imbalance ---------------------------------------------------
    central = CentralMonitorScheme(server=0)
    load = central.load_report(population)

    # --- Self-reporting: unverifiable lying ----------------------------------------
    scheme = SelfReportScheme()
    actual = {node: rng.uniform(0.2, 0.9) for node in population}
    selfish = set(rng.sample(population, n // 10))
    outcome = scheme.evaluate(actual, selfish)

    return {
        "n": n,
        "k": k,
        "churn_events": churn_events,
        "dht_monitor_set_changes": dht_changes,
        "dht_max_pair_cooccurrence": dht_cooccurrence,
        "avmon_monitor_sets_losing_members": avmon_removed,
        "avmon_max_pair_cooccurrence": avmon_cooccurrence,
        "broadcast_join_messages": broadcast_join_messages,
        "avmon_join_messages": avmon_join_messages,
        "central_load_imbalance": load.load_imbalance(),
        "self_report_undetected_liars": outcome.nodes_with_error_above(0.1),
        "self_report_selfish_count": len(selfish),
    }


def _pinging_set(condition: ConsistencyCondition, target: int, universe: int) -> frozenset:
    """``PS(target)`` over the ids ``0 .. universe-1``."""
    return frozenset(m for m in range(universe) if condition.holds(m, target))


def _max_cooccurrence(pinging_sets) -> int:
    from collections import defaultdict

    counts = defaultdict(int)
    for ps in pinging_sets:
        monitors = sorted(ps)
        for i, first in enumerate(monitors):
            for second in monitors[i + 1 :]:
                counts[(first, second)] += 1
    return max(counts.values(), default=0)


def render(data: dict) -> str:
    header = (
        "Extension - baselines vs AVMON "
        f"(N={data['n']}, K={data['k']}, {data['churn_events']} churn events)\n"
    )
    return header + format_kv(
        [
            ("DHT: monitored nodes' PS changes under churn", data["dht_monitor_set_changes"]),
            ("AVMON: PS sets losing a member under churn", data["avmon_monitor_sets_losing_members"]),
            ("DHT: max monitor-pair co-occurrence", data["dht_max_pair_cooccurrence"]),
            ("AVMON: max monitor-pair co-occurrence", data["avmon_max_pair_cooccurrence"]),
            ("Broadcast: messages per join", data["broadcast_join_messages"]),
            ("AVMON: messages per join (JOIN tree)", data["avmon_join_messages"]),
            ("Central: load imbalance (max/mean)", data["central_load_imbalance"]),
            ("Self-report: undetected liars", data["self_report_undetected_liars"]),
            ("Self-report: selfish nodes", data["self_report_selfish_count"]),
        ]
    )
