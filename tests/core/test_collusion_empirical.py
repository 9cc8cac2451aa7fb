"""Empirical validation of the Section-4.3 collusion-resilience bounds.

The analysis predicts: with K = O(log N) and C colluders per node, the
probability that a node's PS contains any of its colluders is ≈ C·K/N —
vanishing as N grows.  We check the closed forms against Monte-Carlo
measurements on the actual hash-based selection scheme.
"""

import random

import pytest
from relation_oracle import monitors_of

from repro.core import optimal
from repro.core.condition import ConsistencyCondition


def measure_pollution(n: int, k: int, colluders_per_node: int, trials: int, seed: int):
    """Fraction of trials where a colluder landed in the node's PS."""
    condition = ConsistencyCondition(k=k, n=n)
    rng = random.Random(seed)
    polluted = 0
    for _ in range(trials):
        target = rng.randrange(n)
        friends = set()
        while len(friends) < colluders_per_node:
            friend = rng.randrange(n)
            if friend != target:
                friends.add(friend)
        if monitors_of(condition, target, friends):  # friends ∩ PS(target)
            polluted += 1
    return polluted / trials


class TestCollusionBounds:
    def test_empirical_matches_closed_form(self):
        n, k, colluders = 500, 9, 3
        predicted_clean = optimal.prob_ps_unpolluted(n, k, colluders)
        measured_polluted = measure_pollution(n, k, colluders, trials=400, seed=7)
        assert measured_polluted == pytest.approx(1.0 - predicted_clean, abs=0.06)

    def test_pollution_shrinks_with_n(self):
        small = measure_pollution(200, 8, 3, trials=300, seed=8)
        large = measure_pollution(1600, 11, 3, trials=300, seed=8)
        # K grows like log N while the pool grows like N: pollution drops.
        assert large < small + 0.02

    def test_more_colluders_more_pollution(self):
        few = measure_pollution(400, 9, 1, trials=400, seed=9)
        many = measure_pollution(400, 9, 10, trials=400, seed=9)
        assert many > few

    def test_pollution_is_rare_at_paper_parameters(self):
        # N=2000, K=11, a handful of friends: single-digit-percent risk.
        measured = measure_pollution(2000, 11, 3, trials=300, seed=10)
        assert measured < 0.05
