"""Machine-readable performance trajectory: micro and sweep benchmarks.

``avmon bench`` measures the simulator's hot paths (micro) and the serial
figure-sweep workload (sweep), then *appends* the results to
``BENCH_micro.json`` / ``BENCH_sweep.json`` — one entry per invocation, so
the files accumulate a commit-over-commit performance trajectory instead of
overwriting history.

Every entry carries two kinds of numbers:

* **wall times** — machine-dependent, for humans and for before/after
  comparisons on one box;
* **deterministic counters** — hash evaluations, processed events, relation
  index sizes, summary checksums and store cache keys.  These are
  byte-stable per seed and Python-version independent, so CI can gate on
  them without flaky wall-clock thresholds: a counter that moves means the
  simulation's work (or its on-disk cache contract) changed, not the
  hardware.
"""

from __future__ import annotations

import hashlib
import json
import platform
import random
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..core.condition import ConsistencyCondition
from ..core.hashing import hash_pair, hash_pair_u64
from ..core.relation import MonitorRelation
from ..sim.engine import Simulator

__all__ = [
    "MICRO_FILENAME",
    "SWEEP_FILENAME",
    "SERVE_FILENAME",
    "run_micro_bench",
    "run_sweep_bench",
    "run_backend_bench",
    "append_entry",
    "run_bench",
]

MICRO_FILENAME = "BENCH_micro.json"
SWEEP_FILENAME = "BENCH_sweep.json"
SERVE_FILENAME = "BENCH_serve.json"
BENCH_SCHEMA = 1

#: Micro-bench sizing per scale: (hash calls, condition checks, relation
#: universe, relation probes, engine events, network messages).
_MICRO_SIZES = {
    "paper": (200_000, 300_000, 10_000, 20, 200_000, 100_000),
    "bench": (200_000, 300_000, 10_000, 20, 200_000, 100_000),
    "test": (20_000, 30_000, 2_000, 10, 20_000, 10_000),
}


def _timed(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_micro_bench(scale: str = "bench") -> Dict[str, dict]:
    """Measure the hot-path primitives; returns ``{metric: payload}``.

    Payloads mix wall numbers (``wall_s``, ``per_sec``) with deterministic
    counters (``evaluations``, ``events``) where the primitive has one.
    """
    try:
        hash_calls, checks, universe, probes, events, messages = _MICRO_SIZES[scale]
    except KeyError:
        raise ValueError(
            f"unknown bench scale {scale!r}; expected one of {sorted(_MICRO_SIZES)}"
        ) from None
    results: Dict[str, dict] = {}

    for algorithm in ("md5", "splitmix64"):
        wall = _timed(
            lambda: [hash_pair(12345, 67890, algorithm) for _ in range(hash_calls)]
        )
        results[f"hash_pair_{algorithm}"] = {
            "calls": hash_calls,
            "wall_s": round(wall, 4),
            "per_sec": round(hash_calls / wall),
        }

    # Integer-domain condition checks over a fixed random pair workload
    # (memo-free: every check is a real hash + integer compare).
    for algorithm in ("md5", "splitmix64"):
        condition = ConsistencyCondition(k=13, n=10_000, hash_algorithm=algorithm)
        rng = random.Random(1)
        pairs = [(rng.randrange(2000), rng.randrange(2000)) for _ in range(checks)]
        holds = condition.holds

        def check_all() -> None:
            for a, b in pairs:
                holds(a, b)

        wall = _timed(check_all)
        results[f"condition_check_{algorithm}"] = {
            "checks": checks,
            "evaluations": condition.hash_evaluations,
            "wall_s": round(wall, 4),
            "per_sec": round(checks / wall),
        }

    # Relation warm scan: materialise TS for `probes` nodes over a
    # `universe`-id universe through the chunked scan kernels.
    for algorithm in ("md5", "splitmix64"):
        condition = ConsistencyCondition(k=13, n=10_000, hash_algorithm=algorithm)
        relation = MonitorRelation(condition)
        relation.add_nodes(range(universe))

        def scan_all() -> None:
            for probe in range(probes):
                relation.targets_of(probe)

        wall = _timed(scan_all)
        results[f"relation_scan_n{universe}_{algorithm}"] = {
            "evaluations": condition.hash_evaluations,
            "index_entries": relation.index_entries(),
            "wall_s": round(wall, 4),
            "pairs_per_sec": round(condition.hash_evaluations / wall),
        }

    # Event-engine throughput: cancellable handles vs the no-handle lane.
    def run_schedule() -> int:
        sim = Simulator()
        for index in range(events):
            sim.schedule(float(index % 60), _noop)
        sim.run_until(60.0)
        return sim.processed_events

    def run_schedule_call() -> int:
        sim = Simulator()
        for index in range(events):
            sim.schedule_call(float(index % 60), _noop)
        sim.run_until(60.0)
        return sim.processed_events

    for name, runner in (("engine_schedule", run_schedule),
                         ("engine_schedule_call", run_schedule_call)):
        start = time.perf_counter()
        processed = runner()
        wall = time.perf_counter() - start
        results[name] = {
            "events": processed,
            "wall_s": round(wall, 4),
            "events_per_sec": round(processed / wall),
        }

    # Full network delivery path: send -> heap -> deliver -> handler.
    from ..net.network import Network, SimHost

    sim = Simulator()
    network = Network(sim, rng=random.Random(0))
    sender = SimHost(network, 0, random.Random(1))
    receiver = SimHost(network, 1, random.Random(2))
    sender.attach(_SinkNode())
    receiver.attach(_SinkNode())
    sender.bring_up()
    receiver.bring_up()
    from ..core.messages import CvPing

    message = CvPing(0, 1)
    send = sender.send

    def pump() -> None:
        for _ in range(messages):
            send(1, message)
        sim.run_until(1e9)

    wall = _timed(pump)
    results["network_delivery"] = {
        "messages": messages,
        "events": sim.processed_events,
        "wall_s": round(wall, 4),
        "messages_per_sec": round(messages / wall),
    }

    # Registry view of the primitives just measured.  Attached AFTER the
    # timed sections — every hot path above ran with hooks disabled, so
    # the micro numbers stay comparable across the trajectory; the
    # callback gauges read the final engine/condition state for free.
    from ..obs import MetricsRegistry
    from ..obs.hooks import observe_condition, observe_simulator

    registry = MetricsRegistry()
    observe_simulator(registry, sim)  # the network-delivery engine
    observe_condition(registry, condition)  # last relation-scan condition
    results["obs"] = {"deterministic": registry.deterministic_snapshot()}
    return results


def _noop() -> None:
    return None


class _SinkNode:
    def handle_message(self, message) -> None:
        return None


def run_sweep_bench(scale: str = "bench", *, scale_out: Optional[bool] = None) -> dict:
    """Serial figure-sweep workload with per-cell deterministic counters.

    Runs the scale's SYNTH N-grid over two seeds exactly as
    ``benchmarks/bench_sweep.py`` does serially, recording per cell the
    wall time plus: processed events, hash evaluations, relation index
    size, the summary JSON's SHA-256 and the disk store's cache key.  The
    latter two pin the byte-identity and cache-address contracts into the
    trajectory file — any drift is visible in the diff.  Each cell also
    embeds the deterministic half of a per-cell ``repro.obs`` registry
    snapshot (engine/condition/relation hooks), which the perf-smoke gate
    compares byte-for-byte between identical runs.

    With *scale_out* (default: only at ``bench``/``paper`` scale) a
    shortened-window ``STAT N=10,000`` cell demonstrates the scale-out
    regime the integer-domain condition and allocation-lean engine exist
    for; the pre-optimisation simulator could not hold its O(N²) condition
    memo in memory at this size.
    """
    from .runner import SimulationConfig, run_simulation
    from .scenarios import n_values, scenario
    from .store import config_key, stable_key_hash

    if scale_out is None:
        scale_out = scale != "test"

    cells: List[dict] = []
    total_wall = 0.0

    from ..obs import MetricsRegistry

    def run_cell(label: str, config) -> None:
        nonlocal total_wall
        registry = MetricsRegistry()
        start = time.perf_counter()
        result = run_simulation(config, obs=registry)
        wall = time.perf_counter() - start
        total_wall += wall
        summary_json = result.summary().to_json()
        relation = result.cluster.relation
        condition = relation.condition
        cells.append(
            {
                "label": label,
                "model": config.model_key,
                "n": config.n,
                "seed": config.seed,
                "wall_s": round(wall, 3),
                "events_processed": result.events_processed,
                "hash_evaluations": condition.hash_evaluations,
                "relation_index_entries": relation.index_entries(),
                "universe": relation.universe_size(),
                "summary_sha256": hashlib.sha256(
                    summary_json.encode("utf-8")
                ).hexdigest(),
                "store_key": stable_key_hash(config_key(config)),
                # Deterministic only: the wall-kind series (scan-phase
                # timers) are excluded, so the perf-smoke gate can compare
                # this dict byte-for-byte between identical runs.
                "obs": registry.deterministic_snapshot(),
            }
        )

    for n in n_values(scale):
        for seed in (1, 2):
            run_cell(f"SYNTH-n{n}-s{seed}", scenario("SYNTH", n, scale, seed=seed))

    if scale_out:
        # Shortened window so the cell stays minutes, not hours; the point
        # is that N=10,000 runs at all (and how fast the substrate is).
        config = SimulationConfig(
            model="STAT",
            n=10_000,
            duration=1500.0,
            warmup=300.0,
            sample_interval=300.0,
            label="scale-out",
        )
        run_cell("STAT-n10000-s1", config)

    return {"cells": cells, "total_wall_s": round(total_wall, 2)}


def run_backend_bench(scale: str = "bench") -> dict:
    """Execution-backend comparison over one shared store: serial vs pool
    vs fleet (cold and warm), plus a chaos variant that SIGKILLs a worker
    and a two-parent remote variant where network-attached workers lease
    cells from the daemon and the parents split the grid via cell claims.

    All variants run the same SYNTH N-grid × two seeds.  The fleet
    variants execute against a live ``avmon store serve`` daemon on an
    ephemeral localhost port, so the measured path is the real one —
    workers resolving and persisting cells over HTTP.  Besides wall
    times, the entry records the concatenated summary-JSON SHA-256 of
    every variant: ``byte_identical`` pins the "same bytes from any
    backend, even with a worker SIGKILLed mid-sweep" contract into the
    trajectory file.
    """
    import contextlib
    import tempfile
    import threading

    from .backends import (
        LocalPoolBackend,
        RemoteWorkerBackend,
        WorkerFleetBackend,
        default_jobs,
        run_fleet_worker,
    )
    from .orchestrator import run_configs
    from .scenarios import n_values, scenario
    from .store import SummaryStore
    from .store_backends import FilesystemBackend
    from .store_server import StoreDaemonThread

    configs = [
        scenario("SYNTH", n, scale, seed=seed)
        for n in n_values(scale)
        for seed in (1, 2)
    ]
    # At least two workers even on a one-core box: the point is the
    # coordination path (leases, retries, shared store), not raw speedup.
    workers = max(2, default_jobs())
    variants: List[dict] = []
    checksums = []

    def record(name: str, wall: float, summaries, extra: dict) -> None:
        digest = hashlib.sha256(
            "".join(s.to_json() for s in summaries).encode("utf-8")
        ).hexdigest()
        checksums.append(digest)
        variants.append(
            {
                "backend": name,
                "wall_s": round(wall, 3),
                "summaries_sha256": digest,
                **extra,
            }
        )

    def timed_run(name: str, extra_of=None, **kwargs) -> None:
        start = time.perf_counter()
        summaries = run_configs(configs, **kwargs)
        wall = time.perf_counter() - start
        record(name, wall, summaries, extra_of() if extra_of else {})

    timed_run("serial", jobs=1)
    timed_run("pool", backend=LocalPoolBackend(workers))

    with contextlib.ExitStack() as stack:
        shared = stack.enter_context(
            tempfile.TemporaryDirectory(prefix="avmon-bench-store-")
        )
        url = stack.enter_context(
            StoreDaemonThread(FilesystemBackend(shared))
        ).url
        cold_store = SummaryStore.open(url)
        warm_store = SummaryStore.open(url)
        stack.callback(cold_store.backend.close)
        stack.callback(warm_store.backend.close)

        fleet = WorkerFleetBackend(workers)
        timed_run(
            "fleet_cold_shared",
            backend=fleet,
            store=cold_store,
            extra_of=lambda: {
                "workers": workers,
                "deaths": fleet.stats.deaths,
            },
        )
        warm = WorkerFleetBackend(workers)
        timed_run(
            "fleet_warm_shared",
            backend=warm,
            store=warm_store,
            extra_of=lambda: {
                "workers": workers,
                "store_hits": warm_store.hits,
                "cells_computed": warm_store.writes
                + warm.stats.workers_spawned,
            },
        )
        chaos = WorkerFleetBackend(
            workers, retry_backoff=0.1, chaos_kill_after_starts=1
        )
        timed_run(
            "fleet_chaos_sigkill",
            backend=chaos,
            store=SummaryStore(Path(shared) / "chaos"),
            extra_of=lambda: {
                "workers": workers,
                "deaths": chaos.stats.deaths,
                "retries": chaos.stats.retries,
            },
        )

        # Two parents, network-attached workers, one daemon: the
        # multi-host path.  A second daemon with a fresh root keeps
        # the variant cold — the fleet variants above already warmed
        # ``shared``.
        remote_root = Path(shared) / "remote"
        remote_root.mkdir()
        remote_url = stack.enter_context(
            StoreDaemonThread(FilesystemBackend(remote_root))
        ).url
        for i in range(2):
            threading.Thread(
                target=run_fleet_worker,
                args=(remote_url,),
                kwargs=dict(
                    poll_interval=0.05, max_idle=15.0, name=f"bench-w{i}"
                ),
                daemon=True,
            ).start()
        parents: dict = {}

        def remote_sweep(tag: str) -> None:
            backend = RemoteWorkerBackend(
                owner=tag,
                lease_ttl=10.0,
                poll_interval=0.05,
                retry_backoff=0.1,
            )
            parent_store = SummaryStore.open(remote_url)
            try:
                summaries = run_configs(
                    configs, store=parent_store, backend=backend
                )
            finally:
                parent_store.backend.close()
            parents[tag] = (summaries, backend)

        start = time.perf_counter()
        sweeps = [
            threading.Thread(target=remote_sweep, args=(tag,))
            for tag in ("bench-parent-a", "bench-parent-b")
        ]
        for sweep in sweeps:
            sweep.start()
        for sweep in sweeps:
            sweep.join()
        remote_wall = time.perf_counter() - start
        if set(parents) != {"bench-parent-a", "bench-parent-b"}:
            raise OSError("a remote bench parent died mid-sweep")
        json_a = [s.to_json() for s in parents["bench-parent-a"][0]]
        json_b = [s.to_json() for s in parents["bench-parent-b"][0]]
        counts = [p[1]._event_counts for p in parents.values()]
        record(
            "fleet_remote_two_parent",
            remote_wall,
            parents["bench-parent-a"][0],
            {
                "parents": 2,
                "workers": 2,
                "cells_computed": sum(
                    c.get("fleet.cell_done", 0) for c in counts
                ),
                "adopted": sum(
                    c.get("fleet.cell_adopted", 0) for c in counts
                ),
                "parents_agree": json_a == json_b,
            },
        )

    return {
        "cells": len(configs),
        "workers": workers,
        "variants": variants,
        "byte_identical": len(set(checksums)) == 1,
        "summaries_sha256": checksums[0],
    }


def _entry(label: str, scale: str, results: dict) -> dict:
    return {
        "label": label,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "scale": scale,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": results,
    }


def append_entry(path: Path, entry: dict) -> None:
    """Append *entry* to the trajectory file at *path* (created if absent).

    Unreadable/foreign content is preserved by renaming, never silently
    overwritten.
    """
    payload = {"schema": BENCH_SCHEMA, "entries": []}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
            if isinstance(existing, dict) and isinstance(existing.get("entries"), list):
                payload = existing
            else:
                path.rename(path.with_suffix(path.suffix + ".bak"))
        except (OSError, ValueError):
            path.rename(path.with_suffix(path.suffix + ".bak"))
    payload["schema"] = BENCH_SCHEMA
    payload["entries"].append(entry)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def run_bench(
    which: str = "all",
    scale: str = "bench",
    out_dir: Optional[str] = None,
    label: str = "",
    scale_out: Optional[bool] = None,
    out=sys.stdout,
) -> dict:
    """Run the requested benches, append trajectory entries, return results."""
    root = Path(out_dir) if out_dir else Path.cwd()
    root.mkdir(parents=True, exist_ok=True)
    label = label or f"avmon-bench-{scale}"
    produced: Dict[str, dict] = {}
    if which in ("micro", "all"):
        micro = run_micro_bench(scale)
        append_entry(root / MICRO_FILENAME, _entry(label, scale, micro))
        produced["micro"] = micro
        print(f"bench: micro -> {root / MICRO_FILENAME}", file=out)
    if which in ("sweep", "all"):
        sweep_results = run_sweep_bench(scale, scale_out=scale_out)
        append_entry(root / SWEEP_FILENAME, _entry(label, scale, sweep_results))
        produced["sweep"] = sweep_results
        print(
            f"bench: sweep ({sweep_results['total_wall_s']}s serial) -> "
            f"{root / SWEEP_FILENAME}",
            file=out,
        )
    # The serving-load and backend-comparison benches are deliberately NOT
    # part of "all": the CI perf-smoke determinism gate runs `bench all`
    # twice and its contract stays micro+sweep; serve and fleet have their
    # own gates in the serve-smoke and fleet-smoke jobs.
    if which == "fleet":
        backend_results = run_backend_bench(scale)
        append_entry(root / SWEEP_FILENAME, _entry(label, scale, backend_results))
        produced["fleet"] = backend_results
        print(
            f"bench: fleet ({backend_results['cells']} cells x "
            f"{len(backend_results['variants'])} backends, byte_identical="
            f"{backend_results['byte_identical']}) -> {root / SWEEP_FILENAME}",
            file=out,
        )
    if which == "serve":
        from ..serve.bench import run_serve_bench

        serve_results = run_serve_bench(scale)
        append_entry(root / SERVE_FILENAME, _entry(label, scale, serve_results))
        produced["serve"] = serve_results
        print(
            f"bench: serve ({serve_results['requests_total']} requests, "
            f"{serve_results['total_wall_s']}s) -> {root / SERVE_FILENAME}",
            file=out,
        )
    return produced
