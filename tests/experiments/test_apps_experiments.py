"""The apps/ workloads as registered experiment components (PR-1 follow-up)."""

from __future__ import annotations

import io
import json

from repro.cli import main
from repro.experiments.figures import EXPERIMENTS, run_experiment
from repro.registry import REGISTRY

APP_IDS = ("app_query", "app_replication", "app_prediction")


def test_apps_registered_as_experiment_components():
    for app_id in APP_IDS:
        assert app_id in EXPERIMENTS
        assert REGISTRY.is_registered("experiment", app_id)


def test_apps_visible_in_cli_listing():
    out = io.StringIO()
    assert main(["list", "--json"], out=out) == 0
    payload = json.loads(out.getvalue())
    ids = {entry["id"] for entry in payload["experiments"]}
    components = set(payload["components"]["experiment"])
    for app_id in APP_IDS:
        assert app_id in ids
        assert app_id in components


def test_app_query_runs_the_full_section_3_3_flow():
    report = run_experiment("app_query", "test")
    assert "queries issued" in report
    assert "reported monitors failing verification" in report


def test_app_replication_compares_policies():
    report = run_experiment("app_replication", "test")
    assert "smart P(>=1 up)" in report
    assert "random P(>=1 up)" in report


def test_app_prediction_scores_predictors():
    report = run_experiment("app_prediction", "test")
    assert "saturating counter" in report
    assert "hit rate" in report
