"""repro — a complete reproduction of AVMON (Morales & Gupta, ICDCS 2007).

AVMON selects and discovers *consistent availability-monitoring overlays*:
for every node ``x`` a pinging set ``PS(x)`` that is consistent, verifiable
and random, discovered scalably through gossiped coarse views.

Quick start — declare a scenario, run it, read the summary::

    from repro import Scenario, run

    summary = run(Scenario(model="SYNTH", n=100, scale="test"))
    print(summary.average_discovery_time())

Sweep a parameter grid across seed replications on every core::

    from repro import Scenario, sweep

    results = sweep(
        Scenario(model="SYNTH", scale="test"),
        grid={"n": [60, 120, 240]},
        seeds=3,
        jobs=4,
    )
    for (n,), group in results.group_by("n").items():
        print(n, group.mean("average_discovery_time"))

Scenarios are fully serialisable (``Scenario.from_json(s.to_json())``),
name every component — churn model, latency model, trace generator — by
its :mod:`repro.registry` key, and accept third-party components
registered with ``@register("churn", "MY-MODEL")``.

The imperative API returns the raw run; its figure metrics live on the
run's summary::

    from repro import SimulationConfig, run_simulation

    result = run_simulation(SimulationConfig(model="SYNTH", n=100,
                                             duration=3600, warmup=600))
    print(result.summary().average_discovery_time())

Packages:

* :mod:`repro.core` — the protocol (hashing, condition, node, analysis);
* :mod:`repro.sim` / :mod:`repro.net` — event engine and network substrate;
* :mod:`repro.churn` / :mod:`repro.traces` — churn models and traces;
* :mod:`repro.baselines` — Broadcast, Central, Self-report, DHT, Cyclon;
* :mod:`repro.registry` — the pluggable component registry;
* :mod:`repro.api` — declarative scenarios, sweeps and result sets;
* :mod:`repro.experiments` — every figure/table of the paper's evaluation,
  plus the parallel sweep orchestrator;
* :mod:`repro.metrics` — collectors and statistics.
"""

from .core import (
    AvmonConfig,
    AvmonNode,
    ConsistencyCondition,
    MonitorRelation,
    NodeId,
    hash_pair,
    optimal,
    verify_monitor_report,
)
from .experiments import (
    SimulationConfig,
    SimulationResult,
    SimulationSummary,
    run_experiment,
    run_simulation,
    scenario,
)
from .api import ResultSet, Scenario, run, sweep
from .registry import (
    UnknownComponentError,
    component_kinds,
    component_names,
    register,
    resolve,
)
from .traces import (
    AvailabilityTrace,
    generate_overnet_trace,
    generate_planetlab_trace,
)

__version__ = "2.0.0"

__all__ = [
    "AvailabilityTrace",
    "AvmonConfig",
    "AvmonNode",
    "ConsistencyCondition",
    "MonitorRelation",
    "NodeId",
    "ResultSet",
    "Scenario",
    "SimulationConfig",
    "SimulationResult",
    "SimulationSummary",
    "UnknownComponentError",
    "__version__",
    "component_kinds",
    "component_names",
    "generate_overnet_trace",
    "generate_planetlab_trace",
    "hash_pair",
    "optimal",
    "register",
    "resolve",
    "run",
    "run_experiment",
    "run_simulation",
    "scenario",
    "sweep",
    "verify_monitor_report",
]
