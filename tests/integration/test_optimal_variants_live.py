"""Live comparison of the optimal variants (Section 4.2's trade-off).

Runs Optimal-MD, Optimal-MDC and the log design point side by side on the
same STAT workload and checks that the analytical trade-off shows up in
the measurements: more coarse view means more memory and computation but
faster discovery.
"""

import pytest

from repro.core.config import AvmonConfig
from repro.experiments.runner import SimulationConfig, run_simulation
from repro.metrics import stats


@pytest.fixture(scope="module")
def variant_results():
    results = {}
    for variant in ("md", "mdc"):
        avmon = AvmonConfig.for_variant(200, variant)
        results[variant] = run_simulation(
            SimulationConfig(
                model="STAT",
                n=200,
                duration=3600.0,
                warmup=900.0,
                seed=29,
                avmon=avmon,
            )
        )
    return results


class TestVariantTradeoffs:
    def test_md_uses_larger_view(self, variant_results):
        assert (
            variant_results["md"].avmon_config.cvs
            > variant_results["mdc"].avmon_config.cvs
        )

    def test_md_uses_more_memory(self, variant_results):
        md_memory = stats.mean(variant_results["md"].memory_values(False))
        mdc_memory = stats.mean(variant_results["mdc"].memory_values(False))
        assert md_memory > mdc_memory

    def test_md_computes_more(self, variant_results):
        md_comps = stats.mean(variant_results["md"].computation_rates(False))
        mdc_comps = stats.mean(variant_results["mdc"].computation_rates(False))
        assert md_comps > mdc_comps

    def test_md_discovers_no_slower(self, variant_results):
        md_delay = stats.mean(variant_results["md"].summary().first_monitor_delays())
        mdc_delay = stats.mean(variant_results["mdc"].summary().first_monitor_delays())
        # Larger cvs -> faster (or at least comparable) discovery; allow
        # noise at this scale.
        assert md_delay <= 2.0 * mdc_delay + 30.0

    def test_both_discover_nearly_everything(self, variant_results):
        # The MD variant's larger view discovers everyone; the deliberately
        # tiny MDC view (cvs = N^(1/4) = 4) may leave a straggler within
        # this 45-minute horizon.
        assert variant_results["md"].metrics.discovery.undiscovered_count() == 0
        assert variant_results["mdc"].metrics.discovery.undiscovered_count() <= 1

    def test_computation_tracks_cvs_squared(self, variant_results):
        """comps(md)/comps(mdc) should scale like (cvs_md/cvs_mdc)^2."""
        md = variant_results["md"]
        mdc = variant_results["mdc"]
        measured_ratio = stats.mean(md.computation_rates(False)) / max(
            1e-9, stats.mean(mdc.computation_rates(False))
        )
        predicted_ratio = (md.avmon_config.cvs / mdc.avmon_config.cvs) ** 2
        assert 0.4 * predicted_ratio < measured_ratio < 2.5 * predicted_ratio
