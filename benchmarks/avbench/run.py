"""Contract entry point: one workload, one process, one result line.

    python3 benchmarks/avbench/run.py --workload W --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Exit code 0
means the outputs checked out; 1 means an operation failed its check;
2 means the benchmark could not run at all (no program to measure).
"""

import time

_PROCESS_STARTED = time.perf_counter()  # before the imports setup_s counts

import argparse
import json
import pathlib
import sys


def main(argv=None) -> int:
    root = pathlib.Path(__file__).resolve().parents[2]
    if not (root / "src" / "repro").is_dir() or not (root / "BENCHMARK.json").is_file():
        print(
            f"avbench: {root} has no src/repro (or no BENCHMARK.json): "
            "nothing to measure",
            file=sys.stderr,
        )
        return 2
    # Run as a script, so neither the repo root (for this package) nor
    # src/ (for the program under test) is importable yet.
    sys.path[:0] = [str(root), str(root / "src")]
    from benchmarks.avbench.harness import load_spec, run_workload
    from benchmarks.avbench.inputs import NOMINAL_SECONDS

    names = [workload["name"] for workload in load_spec()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        default=NOMINAL_SECONDS,
        help="nominal measuring time; op counts scale linearly with it",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="tiny sizes, same code paths"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    result = run_workload(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        quick=args.quick,
        process_started=_PROCESS_STARTED,
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
