#!/usr/bin/env python3
"""Generate, analyse and replay availability traces (PL- and OV-like).

Shows the trace toolchain the PL/OV experiments are built on: synthesise
calibrated traces, compute their statistics, serialise them, and replay
them through a full AVMON simulation.  Also trains an availability
predictor on one node's history (the Mickens-Noble use case from the
paper's introduction).
"""

from repro.apps.prediction import SaturatingCounterPredictor, hit_rate
from repro.experiments.runner import SimulationConfig, run_simulation
from repro.metrics import stats
from repro.traces import (
    generate_overnet_trace,
    generate_planetlab_trace,
    summarize_trace,
)


def describe(label, trace) -> None:
    info = summarize_trace(trace)
    print(f"{label}: {info.node_count} nodes over {info.duration/3600:.1f} h")
    print(f"  stable alive size      {info.stable_size:.0f}")
    print(f"  mean availability      {info.mean_availability:.2f}")
    print(f"  median session length  {info.median_session_length/60:.0f} min")
    print(f"  churn (leaves/hour)    {info.churn_per_hour:.1f} "
          f"({100*info.churn_fraction_per_hour():.0f}% of stable size)")
    print(f"  distinct nodes seen    {info.n_longterm}")


def main() -> None:
    planetlab = generate_planetlab_trace(n=60, duration=6 * 3600.0, seed=11)
    overnet = generate_overnet_trace(
        n_stable=50, duration=6 * 3600.0, seed=11, births_per_hour=0.5
    )
    describe("PlanetLab-like", planetlab)
    print()
    describe("Overnet-like", overnet)

    # Round-trip through the serialisation formats.
    restored = type(overnet).from_json(overnet.to_json())
    print(f"\nJSON round-trip: {len(restored)} nodes preserved")

    # Replay the Overnet-like trace through a full AVMON simulation.
    config = SimulationConfig(
        model="OV",
        n=50,
        duration=3.0 * 3600.0,
        warmup=1800.0,
        seed=12,
        trace=overnet,
    )
    result = run_simulation(config)
    delays = result.summary().first_monitor_delays()
    print(f"\nAVMON over the Overnet-like trace:")
    print(f"  {len(delays)} born nodes discovered their first monitor; "
          f"mean delay {stats.mean(delays):.0f}s")
    print(f"  {stats.fraction_below(delays, 63.0)*100:.0f}% within 63 s "
          f"(paper: 97.27% for the real trace)")

    # Train a predictor on one churned node's up/down pattern.
    node = max(overnet.nodes.values(), key=lambda n: len(n.sessions))
    step = 1200.0
    samples = [
        node.alive_at(t * step) for t in range(int(overnet.duration / step))
    ]
    split = len(samples) // 2
    predictor = SaturatingCounterPredictor(bits=2)
    predictor.train(samples[:split])
    predictions = []
    for actual in samples[split:]:
        predictions.append(predictor.predict())
        predictor.observe(actual)
    accuracy = hit_rate(predictions, samples[split:])
    print(f"\navailability prediction for node {node.node_id} "
          f"({len(node.sessions)} sessions): "
          f"{accuracy*100:.0f}% next-sample accuracy")


if __name__ == "__main__":
    main()
