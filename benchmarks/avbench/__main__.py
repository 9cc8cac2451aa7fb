"""``python -m benchmarks.avbench run|compare|pin`` — the human front end.

``run`` executes workloads through ``run.py`` exactly as the benchmark
contract does — each in a fresh subprocess — and prints every metric by
name with its unit: medians with sample counts when repeated, and the
run-to-run spread the contract's self-agreement check looks at.
``compare`` applies each end-to-end metric's bound to two saved runs.
``pin`` recomputes the golden summary hashes in ``pins.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_once(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
    ]
    if quick:
        command.append("--quick")
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise SystemExit(f"avbench: {workload} exited {done.returncode}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    return result


def _spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile range over the median — the contract's spread."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else None


def _values(runs: List[dict], metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in runs]


def _print_metrics(runs: List[dict], declared: List[dict]) -> None:
    for metric in declared:
        values = _values(runs, metric["name"])
        spread = _spread(values)
        tail = f"  spread={spread:.2%}" if spread is not None else ""
        print(
            f"  {metric['name']:<46} {statistics.median(values):>16.6g} "
            f"{metric['unit']:<6} n={len(values)}{tail}"
        )


def cmd_run(args: argparse.Namespace) -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    chosen = [args.workload] if args.workload else names
    seconds = args.seconds if args.seconds else float(spec["run_seconds"])
    saved: Dict[str, dict] = {}
    failed = False
    for name in chosen:
        runs = [
            _run_once(name, args.seed + index, seconds, False, args.quick)
            for index in range(args.repeats)
        ]
        attempted = sum(run["attempted"] for run in runs)
        failures = sum(run["failed"] for run in runs)
        print(
            f"{name}: failed_share={failures / attempted:.6g} "
            f"({failures} of {attempted} operations, host time unless named virtual)"
        )
        _print_metrics(runs, spec["end_to_end"])
        saved[name] = {"end_to_end": runs}
        if args.trace:
            traced = _run_once(name, args.seed, seconds, True, args.quick)
            _print_metrics([traced], spec["per_layer"])
            saved[name]["per_layer"] = [traced]
            runs = runs + [traced]
        failed = failed or not all(run["correct"] for run in runs)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(saved, indent=1) + "\n")
    return 1 if failed else 0


def _verdict(metric: dict, base: List[float], change: List[float]) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one metric on one
    workload, by the rule in the choosing-metrics guide."""
    higher = metric["better"] == "higher"
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    worse = (base_median - change_median) if higher else (change_median - base_median)
    worse /= abs(base_median)
    spreads = [s for s in (_spread(base), _spread(change)) if s is not None]
    if spreads and max(spreads) > metric["bound"]:
        # Too noisy to call, unless every run of the change beats every
        # run of the base.
        clean_win = min(change) > max(base) if higher else max(change) < min(base)
        return "ok" if clean_win else "unresolved"
    return "regressed" if worse > metric["bound"] else "ok"


def cmd_compare(args: argparse.Namespace) -> int:
    spec = _spec()
    base = json.loads(pathlib.Path(args.base).read_text())
    change = json.loads(pathlib.Path(args.change).read_text())
    metrics = spec["end_to_end"]
    print("workload".ljust(16) + "".join(m["name"].rjust(24) for m in metrics))
    bad = False
    for name in (w["name"] for w in spec["workloads"]):
        if name not in base or name not in change:
            continue
        cells = []
        for metric in metrics:
            before = _values(base[name]["end_to_end"], metric["name"])
            after = _values(change[name]["end_to_end"], metric["name"])
            verdict = _verdict(metric, before, after)
            bad = bad or verdict != "ok"
            ratio = statistics.median(after) / statistics.median(before)
            cells.append(f"{verdict} x{ratio:.3f}".rjust(24))
        print(name.ljust(16) + "".join(cells))
    return 1 if bad else 0


def cmd_pin(args: argparse.Namespace) -> int:
    """Recompute ``pins.json``: store key -> summary SHA-256 for every
    simulation cell the pinned seeds generate, at both scales."""
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from repro.experiments.backends import LocalPoolBackend
    from repro.experiments.orchestrator import run_configs

    from benchmarks.avbench.inputs import GENERATORS, Scale
    from benchmarks.avbench.workloads import PINS_PATH, store_key, summary_digest

    configs = {}
    for quick in (False, True):
        for seed in args.seeds:
            for name in ("sim-churn", "sim-scaleout", "sweep-fabric"):
                inputs = GENERATORS[name](seed, Scale(quick=quick))
                grids = getattr(inputs, "grids", None) or (inputs.configs,)
                for config in (c for grid in grids for c in grid):
                    configs[store_key(config)] = config
    keys = sorted(configs)
    summaries = run_configs(
        [configs[key] for key in keys], backend=LocalPoolBackend(args.jobs)
    )
    pins = {
        key: summary_digest(summary.to_json())
        for key, summary in zip(keys, summaries)
    }
    PINS_PATH.write_text(
        json.dumps({"seeds": list(args.seeds), "pins": pins}, indent=1) + "\n"
    )
    print(f"pinned {len(pins)} cells for seeds {list(args.seeds)} -> {PINS_PATH}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.avbench")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run workloads, print every metric")
    run.add_argument("--workload", help="one workload (default: all six)")
    run.add_argument("--seed", type=int, default=1, help="first seed (held-out: 7)")
    run.add_argument("--seconds", type=float, help="default: run_seconds")
    run.add_argument("--repeats", type=int, default=1, help="runs per workload, one seed each")
    run.add_argument("--trace", action="store_true", help="add a traced run: per-layer metrics")
    run.add_argument("--quick", action="store_true", help="tiny sizes, same code paths")
    run.add_argument("--out", help="save every run as JSON (input to compare)")
    run.set_defaults(handler=cmd_run)

    compare = commands.add_parser("compare", help="apply the bounds to two saved runs")
    compare.add_argument("base")
    compare.add_argument("change")
    compare.set_defaults(handler=cmd_compare)

    pin = commands.add_parser("pin", help="recompute pins.json")
    pin.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 13)))
    pin.add_argument("--jobs", type=int, default=2)
    pin.set_defaults(handler=cmd_pin)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
