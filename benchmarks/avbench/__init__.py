"""avbench: the repository's contract benchmark.

Six named workloads over the sim, sweep, live and serve paths, measured
from outside ``src/`` (timed calls into public functions, public
counters, ``cProfile`` started by the harness).  ``BENCHMARK.json`` at
the repo root is the metric and workload catalogue; ``README.md`` here
says how to run, trace and compare.
"""
