"""Smoke tests: every registered experiment runs at test scale.

One shared cache keeps the total cost low — most figures reuse the same
base simulations.  Each test asserts structural properties of a spec's
rows, not just that rendering succeeds; the golden table pins every
artifact's rendered text byte for byte.
"""

import hashlib

import pytest

from repro.experiments import ext_baselines, table1
from repro.experiments.cache import SimulationCache
from repro.experiments.figures import (
    EXPERIMENTS,
    MODELS,
    MULTIPLIERS,
    run_experiment,
)
from repro.experiments.scenarios import n_values

#: SHA-256 of ``run_experiment(id, "test", cache)``: identical across
#: processes and across Python 3.11 and 3.12.  A deliberate change to an
#: artifact's text regenerates the entry it moves.
GOLDEN_SHA256 = {
    "table1": "188e1867df2363f3aedc064d9bfc57daca5757ac3a6295b2dc619ad7f2f6e0fe",
    "fig3": "778e3d39e715b0ace3e38236a43f66f1c69b7509773d112c9a5f7a004b17d9d9",
    "fig4": "485fa277a707d40434ea6aacffe6b7747d1f17b63b60dc953a6e41ed868c1966",
    "fig5": "c856718e8f2b95558f8b422f601771288448c73e5b1d9fe908a07c321d22ef97",
    "fig6": "99e63e8a39fd1e9e8a5a371ea377862898ae9e7b8a748b62bdcddfb021c3b456",
    "fig7": "2c94840122e22e85ac177b3940a0ab825ac70d35c9f55b45e114a5e3dccdc2ca",
    "fig8": "f3fbdd9b3d5283a33b1f50fbc167c091ffa6cd97a0f92e1dd5467839da82b5eb",
    "fig9": "a7bae337c13fc950bdbc56b889c1e55a6b18f3a08f2ef28f7642e5a669a42001",
    "fig10": "5985b47e1aab460aceaa235d3816fa61075d7b8ebb67e1771886c365389baac8",
    "fig11": "364d0850c7392b21073ca94b5a418fa83c069519ba01607a4dc300027fe2abc0",
    "fig12": "364d0850c7392b21073ca94b5a418fa83c069519ba01607a4dc300027fe2abc0",
    "fig13": "e8c7161cfe23e968fa827a3f4197be9b68b8c1e866fcb60a6b7a54cba42f9a0b",
    "fig14": "ba62e060e7237f1c79c0a3bc02ca97b8c6c7d50835d8700b1a5af4af5965171e",
    "fig15": "442b2995745d02a48561f72e979f34e4b3d5d49700fb70a71d6e705913b66d2e",
    "fig16": "eefff78c8324b3ba4880e059fa60eb34a53e29cb17017dee3eb1dcb92e7abe63",
    "fig17": "dcb81cb68e586b5c8e7271fcbf5f5a18b9ec89ebf968f3cf96545ec76e0b22ff",
    "fig18": "d6b01b011535f3fe57c31a815b70f381433684d2784ab2c32d0039bc55001901",
    "fig19": "263e10215026045ee9b528bf44cf67a5a1c5a1edf47393971853ca129da6ba50",
    "fig20": "39ef651c9520e2725589fcf2e47ebd20728ecd3b009ece708bcf355e81566d6a",
    "ext_baselines": "f85aab70585d32349d7aebda2e3a2b3e5d5e5e99c09c86968f05f7f3793eea76",
    "app_query": "2949ecc2f069bc287fe9c34682425fe9ecb9687215457bbabfab68486e4aaa79",
    "app_replication": "f2caa0ef1c12fa369a8a10931488a20f835465180085e110ce8a3065663333e0",
    "app_prediction": "8905a9d62572258d164638216e751ec4ae3e853d5bb4b6f6c232e11ccdc60986",
}


@pytest.fixture(scope="module")
def cache():
    return SimulationCache()


def spec_rows(experiment_id, cache):
    return EXPERIMENTS[experiment_id].compute("test", cache)


class TestFigureComputations:
    def test_fig3_rows(self, cache):
        rows = spec_rows("fig3", cache)
        assert len(rows) == 3 * len(n_values("test"))
        for model, n, avg, std, count in rows:
            assert model in MODELS
            assert avg >= 0.0
            assert count > 0

    def test_fig3_discovery_below_two_periods(self, cache):
        rows = spec_rows("fig3", cache)
        for model, n, avg, std, count in rows:
            assert avg < 120.0, f"{model} N={n} discovery too slow: {avg}"

    def test_fig4_5_cdfs(self, cache):
        for caption, (n, count, within_30s, within_60s), points in spec_rows(
            "fig4", cache
        ):
            fractions = [f for _, f in points]
            assert fractions == sorted(fractions)
            assert within_60s >= within_30s

    def test_fig6_l_monitor_ordering(self, cache):
        rows = spec_rows("fig6", cache)
        by_model = {}
        for model, n, level, avg, count in rows:
            by_model.setdefault(model, {})[level] = avg
        for model, levels in by_model.items():
            if all(levels.get(l, 0) > 0 for l in (1, 2)):
                assert levels[1] <= levels[2] * 1.5 + 60.0

    def test_fig7_rates_positive(self, cache):
        rows = spec_rows("fig7", cache)
        for model, n, avg, std, expected in rows:
            assert avg > 0.0
            assert expected > 0.0
            # Measured should be within a small factor of 2*cvs^2/T.
            assert 0.2 * expected < avg < 4.0 * expected

    def test_fig8_cdf_structure(self, cache):
        rows = spec_rows("fig8", cache)
        assert rows
        for caption, _, points in rows:
            assert points[-1][1] == 1.0

    def test_fig9_memory_near_expected(self, cache):
        rows = spec_rows("fig9", cache)
        for model, n, avg, std, expected in rows:
            assert 0.4 * expected < avg < 2.5 * expected

    def test_fig11_12_sweep(self, cache):
        rows = spec_rows("fig11", cache)
        multipliers = {row[1] for row in rows}
        assert multipliers == set(MULTIPLIERS)
        # Memory grows with cvs at fixed N.
        by_n = {}
        for n, mult, cvs, disc, dstd, mem, comps in rows:
            by_n.setdefault(n, []).append((cvs, mem))
        for pairs in by_n.values():
            ordered = sorted(pairs)
            memories = [m for _, m in ordered]
            assert memories == sorted(memories)

    def test_fig11_12_runner_accepts_jobs(self):
        assert EXPERIMENTS["fig11"].supports_jobs
        assert EXPERIMENTS["fig12"].supports_jobs

    def test_all_sweep_figures_support_jobs(self):
        """Every simulation-backed artifact fans out through the
        orchestrator now; exempt are the closed-form table and the
        single-simulation workloads (baselines, app_*), which have no
        cell grid to fan out."""
        single_run = {"table1", "ext_baselines"}
        single_run.update(eid for eid in EXPERIMENTS if eid.startswith("app_"))
        for eid, experiment in EXPERIMENTS.items():
            assert experiment.supports_jobs == (eid not in single_run), eid

    def test_fig13_14_traces(self, cache):
        rows = spec_rows("fig13", cache)
        assert [caption for _, (caption, _) in rows] == [
            "OV discovery CDF:",
            "PL discovery CDF:",
        ]
        for pairs, _ in rows:
            (_, n_longterm), (_, within_63s) = pairs
            assert n_longterm > 0
            assert 0.0 <= within_63s <= 1.0

    def test_fig15_16_high_churn(self, cache):
        rows = spec_rows("fig15", cache)
        assert {row[0] for _, row, _ in rows} == {"SYNTH-BD", "SYNTH-BD2"}
        memory_rows, increases = spec_rows("fig16", cache)
        assert len(memory_rows) == 2 * len(n_values("test"))
        assert [n for n, _ in increases] == n_values("test")

    def test_fig17_forgetful_accuracy(self, cache):
        audited = {
            key: value
            for pairs, _ in spec_rows("fig17", cache)
            for key, value in pairs
            if key.endswith("nodes audited")
        }
        assert set(audited) == {
            "forgetful nodes audited",
            "non-forgetful nodes audited",
        }
        assert all(count > 0 for count in audited.values())

    def test_fig18_forgetful_saves_pings(self, cache):
        rows = spec_rows("fig18", cache)
        by_variant = {}
        for variant, n, avg, std in rows:
            by_variant.setdefault(variant, []).append(avg)
        forgetful = sum(by_variant["forgetful"])
        non = sum(by_variant["non-forgetful"])
        assert forgetful < non

    def test_fig19_bandwidth(self, cache):
        rows = spec_rows("fig19", cache)
        assert [row[0] for _, row, _ in rows] == ["STAT", "STAT-PR2", "OV"]
        for _, (label, nodes, below_10, below_25, p99, peak), _ in rows:
            assert nodes > 0
            assert peak < 500.0

    def test_fig20_attack(self, cache):
        rows = spec_rows("fig20", cache)
        zero_rows = [r for r in rows if r[1] == 0.0]
        for system, fraction, affected, audited in zero_rows:
            assert affected <= 0.05, f"{system}: honest run shows {affected}"

    def test_table1(self):
        rows = table1.compute(1_000_000)
        assert len(rows) == 5
        text = table1.render(rows)
        assert "Broadcast" in text

    def test_ext_baselines(self):
        data = ext_baselines.compute(n=80, churn_events=30)
        assert data["dht_monitor_set_changes"] > 0
        assert data["avmon_monitor_sets_losing_members"] == 0
        assert data["broadcast_join_messages"] > data["avmon_join_messages"]


class TestGenericRunner:
    @pytest.mark.parametrize("experiment_id", list(GOLDEN_SHA256))
    def test_rendered_text_matches_golden(self, experiment_id, cache):
        text = run_experiment(experiment_id, "test", cache)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == GOLDEN_SHA256[experiment_id]

    def test_golden_covers_every_artifact(self):
        assert list(GOLDEN_SHA256) == list(EXPERIMENTS)

    def test_pins_no_full_results(self, cache):
        """Regression: a bespoke sweep loop kept one live SimulationResult
        (cluster + network graph) per cell in the shared cache — unbounded
        memory growth during ``avmon run all``.  Every spec consumes flat
        summaries only."""
        for experiment in EXPERIMENTS.values():
            if experiment.supports_jobs:
                experiment.compute("test", cache)
        assert cache.summary_count() > 0

    def test_parallel_matches_serial(self, cache):
        """``run_experiment(..., jobs=N)`` must both honour the pool and
        reproduce the serial rows exactly."""
        serial = spec_rows("fig16", cache)
        parallel = EXPERIMENTS["fig16"].compute("test", SimulationCache(), jobs=2)
        assert serial == parallel


class TestRegistry:
    def test_all_ids_present(self):
        expected = (
            {f"fig{i}" for i in range(3, 21)}
            | {"table1", "ext_baselines"}
            | {"app_query", "app_replication", "app_prediction"}
        )
        assert set(EXPERIMENTS) == expected

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("fig99")

    def test_cheap_experiments_render(self, cache):
        for experiment_id in ("table1", "ext_baselines", "fig3"):
            text = run_experiment(experiment_id, "test", cache)
            assert len(text) > 50
