"""Tier-1 smoke test for the contract benchmark (quick scale, in process).

Guards the promises ``BENCHMARK.json`` makes: every workload runs and
checks out, every declared metric is emitted under a well-formed name,
and the counts repeat exactly for one seed.
"""

import json
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.avbench import harness  # noqa: E402
from benchmarks.avbench.__main__ import _verdict  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

def _quick(name: str, trace: bool) -> dict:
    return harness.run_workload(name, seed=1, seconds=1.0, trace=trace, quick=True)


def test_catalogue_is_well_formed():
    names = (
        WORKLOADS
        + [m["name"] for m in SPEC["end_to_end"]]
        + [m["name"] for m in SPEC["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert SPEC["paths"] == ["benchmarks/avbench"]
    assert len(WORKLOADS) == 6 and len(SPEC["per_layer"]) <= 128
    assert sorted(harness.WORKLOADS) == sorted(WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_emits_every_declared_metric(name):
    plain = _quick(name, trace=False)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert list(plain["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(metric["value"] > 0 for metric in plain["metrics"].values())

    traced = _quick(name, trace=True)
    assert traced["correct"]
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for declared in SPEC["per_layer"]:
        assert traced["metrics"][declared["name"]]["unit"] == declared["unit"]

    # The budget adds up: rows sum to the traced wall (2 % at full
    # scale; a sub-second quick run gets more slack for fixed costs).
    values = {k: v["value"] for k, v in traced["metrics"].items()}
    rows = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert rows == pytest.approx(values["trace.wall_s"], rel=0.10)

    # Counts are exact per seed: a traced run makes two passes over the
    # same inputs (untraced, then profiled) and the harness fails the
    # run when their counts differ, so ``correct`` above covers it.  The
    # virtual-clock latencies are counts in that sense too.
    if name == "serve-verified":
        assert values["apps.query.virtual_p50_ms"] > 0
        assert values["apps.query.timed_out"] == 0


def test_pins_agree_with_the_summary_regression_goldens():
    # tests/experiments/test_summary_regression.py pins SYNTH n=30 at
    # test scale for seeds 1 and 2 — the quick sim-churn/sweep cells.
    pins = json.loads((ROOT / "benchmarks/avbench/pins.json").read_text())["pins"]
    assert pins["4c7d11695b98a3188d8ac3cb65894bf9"] == (
        "aed793bd657e361c18adf537d1b1e79ac39e1a72c4757b6128e9ba34b487f459"
    )
    assert pins["778d221210f16d5227767afe09e24d21"] == (
        "b6a8f3127f22a2a9c25cfd0d2730b5938ebba1a02fde2f9d0e3493ec51893139"
    )


def test_a_wrong_summary_is_a_failed_operation(monkeypatch):
    from benchmarks.avbench import workloads

    monkeypatch.setattr(
        workloads, "_load_pins", lambda: dict.fromkeys(json.loads(
            workloads.PINS_PATH.read_text())["pins"], "0" * 64)
    )
    result = _quick("sim-churn", trace=False)
    assert not result["correct"] and result["failed"] == result["attempted"] == 1


def test_laps_are_calibrated_against_the_host_speed(monkeypatch):
    from benchmarks.avbench import timing as timing_module

    # A host running at half, then a quarter, of the reference speed.
    readings = iter([0.5, 0.5, 0.25, 0.25])
    monkeypatch.setattr(
        timing_module,
        "calibrate",
        lambda: next(readings) * timing_module.REFERENCE_LOOPS_PER_S,
    )
    timing = timing_module.Timing()
    with timing.timed():
        timing.lap("work", 100.0)
        timing.lap("work", 100.0)
        timing.lap("other", 0.0)
    assert [lap.speed for lap in timing.laps] == [0.5, 0.375, 0.25]
    assert timing.calibrated_wall_s < timing.wall_s
    first, second, _ = timing.laps
    assert timing.rate("work") == pytest.approx(
        (100 / first.calibrated + 100 / second.calibrated) / 2
    )
    assert timing.rate("work", calibrated=False) < timing.rate("work")


def test_compare_verdicts():
    lower = {"better": "lower", "bound": 0.10}
    higher = {"better": "higher", "bound": 0.10}
    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    assert _verdict(lower, steady, [v * 1.05 for v in steady]) == "ok"
    assert _verdict(lower, steady, [v * 1.20 for v in steady]) == "regressed"
    assert _verdict(higher, steady, [v * 0.80 for v in steady]) == "regressed"
    assert _verdict(higher, steady, [v * 1.20 for v in steady]) == "ok"
    noisy = [1.0, 1.4, 0.7, 1.2, 0.8, 1.3, 0.9, 1.1, 0.6, 1.5]
    assert _verdict(lower, steady, noisy) == "unresolved"
    # Noisy, but every run of the change beats every run of the base.
    assert _verdict(lower, [v * 10 for v in noisy], noisy) == "ok"
