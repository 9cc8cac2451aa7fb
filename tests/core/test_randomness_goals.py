"""Statistical tests of the selection scheme's randomness goals (§1 goal 3).

(a) uniformity: every node is picked into PS(x) with the same likelihood;
(b) non-correlation: co-membership of two monitors in one pinging set does
    not predict co-membership in another;
plus the Balls-and-Bins consequence from §4.3: PS/TS sizes concentrate
around K with an O(log N) maximum.
"""

from collections import Counter
from functools import lru_cache

from relation_oracle import monitors_of

from repro.core.condition import ConsistencyCondition
from repro.core.relation import MonitorRelation

N = 400
K = 9


def build_relation():
    condition = ConsistencyCondition(k=K, n=N)
    relation = MonitorRelation(condition)
    relation.add_nodes(range(N))
    return relation


@lru_cache(maxsize=None)
def pinging_sets():
    """``PS(x)`` for every ``x`` in the universe, by brute force."""
    condition = ConsistencyCondition(k=K, n=N)
    return {x: monitors_of(condition, x, range(N)) for x in range(N)}


class TestUniformity:
    def test_ps_sizes_concentrate_around_k(self):
        sizes = [len(pinging_sets()[x]) for x in range(N)]
        mean = sum(sizes) / len(sizes)
        assert 0.8 * K < mean < 1.2 * K

    def test_ps_max_is_logarithmic(self):
        sizes = [len(pinging_sets()[x]) for x in range(N)]
        import math

        # Balls & bins: max is O(log N) w.h.p.; allow a wide constant.
        assert max(sizes) < 5 * math.log(N)

    def test_monitor_duty_evenly_spread(self):
        # Each node should monitor ~K others: load balancing of the
        # monitoring duty itself.
        relation = build_relation()
        duties = [len(relation.targets_of(u)) for u in range(N)]
        mean = sum(duties) / len(duties)
        assert 0.8 * K < mean < 1.2 * K

    def test_every_node_appears_as_monitor_roughly_equally(self):
        appearances = Counter()
        for x in range(N):
            for monitor in pinging_sets()[x]:
                appearances[monitor] += 1
        # No node is monitor in dramatically more sets than average.
        counts = [appearances.get(u, 0) for u in range(N)]
        mean = sum(counts) / len(counts)
        assert max(counts) < mean + 6 * (mean ** 0.5) + 3


class TestNonCorrelation:
    def test_pairs_rarely_cooccur(self):
        """Condition 3(b): under random selection a monitor pair co-occurs
        in ~N·(K/N)² ≈ K²/N sets; with K=9, N=400 that is ~0.2 — so even
        the max over all ~80k pairs stays in Poisson-tail territory, far
        below the DHT baseline where ring-adjacent nodes co-occur in up to
        K-1 = 8 sets."""
        cooccur = Counter()
        for x in range(N):
            monitors = sorted(pinging_sets()[x])
            for i, first in enumerate(monitors):
                for second in monitors[i + 1 :]:
                    cooccur[(first, second)] += 1
        assert max(cooccur.values(), default=0) <= 5

    def test_conditional_membership_independent(self):
        """P(z in PS(x) | y in PS(x)) ~ P(z in PS(x)) empirically."""
        ps = pinging_sets()
        y, z = 7, 13
        with_y = [x for x in range(N) if x not in (y, z) and y in ps[x]]
        base_rate = sum(
            1 for x in range(N) if x not in (y, z) and z in ps[x]
        ) / (N - 2)
        if with_y:
            conditional = sum(1 for x in with_y if z in ps[x]) / len(with_y)
            # Loose: conditional rate within a few multiples of base rate
            # (both are small probabilities around K/N ~ 0.02).
            assert conditional <= 5 * base_rate + 0.25
