"""Benchmark: regenerate the paper's Figures 3-20 (one spec entry each in
``repro.experiments.figures``).

One case per figure, ids ``fig3`` ... ``fig20``; pick one with
``pytest benchmarks/bench_figures.py -k fig7``.
"""

import pytest
from conftest import run_artifact

FIGURES = [f"fig{number}" for number in range(3, 21)]


@pytest.mark.parametrize("figure", FIGURES)
def test_figure(figure, benchmark, record_report, shared_cache, scale):
    report = run_artifact(benchmark, record_report, shared_cache, scale, figure)
    assert report.strip()
