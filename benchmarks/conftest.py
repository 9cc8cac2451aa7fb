"""Shared infrastructure for the per-artifact benchmarks.

Every benchmark regenerates one table/figure of the paper at ``bench``
scale (override with the AVMON_BENCH_SCALE environment variable: ``test``
for a quick smoke, ``paper`` for full-size replication).  Simulation runs
are memoised in a session-wide cache, so artifacts that share base runs
(Figures 3-10) only pay for them once; the pytest-benchmark timing of a
cached artifact measures its marginal cost.

Rendered series are printed and also written to ``benchmarks/results/``,
so the regenerated rows survive pytest's output capture.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.experiments.cache import SimulationCache

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def bench_scale() -> str:
    return os.environ.get("AVMON_BENCH_SCALE", "bench")


@pytest.fixture(scope="session")
def scale() -> str:
    return bench_scale()


@pytest.fixture(scope="session")
def shared_cache() -> SimulationCache:
    return SimulationCache()


@pytest.fixture(scope="session")
def record_report():
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(artifact_id: str, report: str) -> None:
        path = RESULTS_DIR / f"{artifact_id}.txt"
        path.write_text(report + "\n")
        print()
        print(report)

    return _record


def run_artifact(benchmark, record_report, cache, scale, artifact_id):
    """Benchmark one registry artifact and persist its rendered series."""
    from repro.experiments.figures import run_experiment

    report = benchmark.pedantic(
        lambda: run_experiment(artifact_id, scale, cache), rounds=1, iterations=1
    )
    record_report(artifact_id, report)
    return report
