"""Run one workload in this process and return its contract result.

An untraced pass produces the end-to-end metrics and the counts.  With
tracing on, a second pass of the same inputs runs under ``cProfile``
(started here, around the timed phase only) and the isolated unit-cost
drivers follow; end-to-end numbers never come from a profiled pass.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Dict, List, Optional

from .inputs import GENERATORS, Scale
from .layers import LAYERS, self_seconds
from .timing import REFERENCE_LOOPS_PER_S, Timing, calibrate
from .unitcosts import measure_unit_costs
from .workloads import WORKLOADS, Outcome

__all__ = ["ROOT", "load_spec", "run_workload"]

#: The checkout: BENCHMARK.json and src/ live here, scratch files too.
ROOT = pathlib.Path(__file__).resolve().parents[2]


def load_spec() -> dict:
    """``BENCHMARK.json`` — the one catalogue of workloads and metrics."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _one_pass(workload, inputs, workdir: str, profiling: bool):
    """Set up (repeatedly), measure, tear down; returns ``(outcome,
    timing, set-up host seconds, host speed during set-up)``."""
    setups: List[float] = []
    state = None
    calibration = calibrate()
    for repeat in range(workload.setup_repeats):
        if repeat:
            workload.teardown(state)
        started = time.perf_counter()
        state = workload.setup(inputs, workdir)
        setups.append(time.perf_counter() - started)
    timing = Timing(profiling)
    entered = time.perf_counter()
    try:
        outcome = workload.measure(inputs, state, timing)
    finally:
        workload.teardown(state)
    # What measure() did before the clock started is set-up too.
    late_setup = timing.started_at - entered
    speed = (calibration + timing.first_calibration) / 2.0 / REFERENCE_LOOPS_PER_S
    return outcome, timing, statistics.median(setups) + late_setup, speed


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any child it reaped."""
    peak_kb = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return peak_kb / 1024.0


def run_workload(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool = False,
    process_started: Optional[float] = None,
) -> dict:
    """Measure workload *name*; returns the contract's result object.

    *process_started* is the ``perf_counter`` reading taken first thing
    in the process, so imports count towards ``setup_s``.
    """
    spec = load_spec()
    if name not in {w["name"] for w in spec["workloads"]} or name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    began = process_started if process_started is not None else time.perf_counter()
    workload = WORKLOADS[name]
    scratch = ROOT / ".avbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=scratch)
    # Anything under src/ that asks for a temp file gets one in here too.
    previous_tempdir, tempfile.tempdir = tempfile.tempdir, workdir
    try:
        inputs = GENERATORS[name](seed, Scale(seconds=seconds, quick=quick))
        ready = time.perf_counter()
        # Unit costs go first in a traced run, so every workload's trace
        # measures them in the same fresh-process state.
        unit_costs = measure_unit_costs(workdir, quick=quick) if trace else {}
        outcome, timing, setup, setup_speed = _one_pass(
            workload, inputs, workdir, False
        )
        setup += ready - began
        # Times are calibrated (see timing.py); the raw host readings go
        # out beside them in a traced run.
        values: Dict[str, float] = {
            "setup_s": setup * setup_speed,
            "wall_s": timing.calibrated_wall_s,
            "work_per_s": timing.rate(outcome.headline),
            "peak_rss_mb": _peak_rss_mb(),
        }
        declared = spec["end_to_end"]
        if trace:
            values = _traced(workload, inputs, workdir, outcome, timing)
            values.update(unit_costs)
            values.update(
                {
                    "host.setup_s": setup,
                    "host.wall_s": timing.wall_s,
                    "host.work_per_s": timing.rate(
                        outcome.headline, calibrated=False
                    ),
                    "host.speed": timing.speed,
                }
            )
            declared = spec["per_layer"]
    finally:
        tempfile.tempdir = previous_tempdir
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # unless another run is using it
    for problem in outcome.problems:
        print(f"avbench: {name}: {problem}", file=sys.stderr)
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": _declared_metrics(declared, values, sparse=trace),
    }


def _traced(
    workload, inputs, workdir: str, untraced: Outcome, untraced_timing
) -> Dict[str, float]:
    """The profiled second pass: per-layer self time, plus the counts."""
    outcome, timing, _setup, _speed = _one_pass(workload, inputs, workdir, True)
    if _exact(outcome.counts) != _exact(untraced.counts):
        untraced.failed += 1
        untraced.problems.append("counts differ between traced and untraced pass")
    rows = self_seconds(
        timing.profile, [helper.profile for helper in timing.helpers]
    )
    values: Dict[str, float] = {f"{layer}.self_s": rows[layer] for layer in LAYERS}
    values["trace.wall_s"] = timing.wall_s
    values["trace.overhead_ratio"] = (
        timing.calibrated_wall_s / untraced_timing.calibrated_wall_s
    )
    values.update(untraced.counts)
    return values


#: Counts that are measured rates or shares, not exact per seed.
_RATE_COUNTS = (
    "experiments.orchestrator.cold_cells_per_s",
    "experiments.orchestrator.warm_cells_per_s",
    "experiments.backends.pool_efficiency",
    "live.overlay.background_share",
)


def _exact(counts: Dict[str, float]) -> Dict[str, float]:
    """The counts that must repeat exactly for one seed."""
    return {k: v for k, v in counts.items() if k not in _RATE_COUNTS}


def _declared_metrics(
    declared: List[dict], values: Dict[str, float], *, sparse: bool
) -> dict:
    """Exactly the declared metrics, each with its declared unit.

    With *sparse* (per-layer), a count this workload has no source for
    reads 0.  A value the harness produced but BENCHMARK.json does not
    name is always an error, so the catalogue and the code cannot drift
    apart silently.
    """
    names = {metric["name"] for metric in declared}
    stray = sorted(set(values) - names)
    missing = [] if sparse else sorted(names - set(values))
    if stray or missing:
        raise RuntimeError(
            f"BENCHMARK.json and the harness disagree: "
            f"undeclared {stray}, unmeasured {missing}"
        )
    return {
        metric["name"]: {
            "value": float(values.get(metric["name"], 0.0)),
            "unit": metric["unit"],
        }
        for metric in declared
    }
