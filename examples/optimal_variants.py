#!/usr/bin/env python3
"""The Section-4 optimality analysis, analytically and empirically.

Prints Table 1 for a configurable N, cross-checks the closed-form optima
against a numeric minimiser, then runs the Optimal-MD and Optimal-MDC
variants side by side in a live simulation to show the predicted
memory/computation/discovery trade-off.
"""

from repro.core import optimal
from repro.core.config import AvmonConfig
from repro.experiments.runner import SimulationConfig, run_simulation
from repro.experiments.table1 import compute, render
from repro.metrics import stats


def main() -> None:
    print(render(compute(1_000_000), 1_000_000))

    # Empirical comparison at a simulatable size.
    n = 150
    print(f"\nempirical comparison at N={n} (STAT model, 1 h):")
    # E[D] is the per-pair upper bound of Section 4.1; measured first-monitor
    # discovery is the minimum over ~K pairs, hence much faster.
    header = (
        f"{'variant':10} {'cvs':>4} {'pair bound(s)':>13} {'measured(s)':>12} "
        f"{'memory':>7} {'comps/s':>8}"
    )
    print(header)
    print("-" * len(header))
    for variant in ("md", "mdc", "log"):
        avmon = AvmonConfig.for_variant(n, variant)
        config = SimulationConfig(
            model="STAT",
            n=n,
            duration=4500.0,
            warmup=900.0,
            seed=17,
            avmon=avmon,
        )
        result = run_simulation(config)
        predicted = optimal.expected_discovery_time(avmon.cvs, n) * 60.0
        delays = result.summary().first_monitor_delays()
        memory = stats.mean(result.memory_values(control_only=True))
        comps = stats.mean(result.computation_rates(control_only=True))
        print(
            f"{variant:10} {avmon.cvs:>4} {predicted:>13.1f} "
            f"{stats.mean(delays):>12.1f} {memory:>7.1f} {comps:>8.2f}"
        )
    print(
        "\nreading: larger cvs -> faster discovery but more memory and\n"
        "computation; Optimal-MDC balances all three (Section 4.2)."
    )


if __name__ == "__main__":
    main()
