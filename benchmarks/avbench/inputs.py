"""Input generation: the only place a workload's ``--seed`` is read.

Each generator turns ``(seed, scale)`` into plain configs and request
lists; the program under test receives those and nothing else, so the
same seed always means the same work.  Sizes are *nominal* — fixed op
counts sized for ``NOMINAL_SECONDS`` of measurement on the 2-core
reference box — and scale linearly with ``--seconds``; the counts a run
reports therefore repeat exactly for a given seed and ``--seconds``.
``--quick`` swaps in tiny unit sizes (same code paths, each workload
well under a second) for the smoke test.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.experiments.runner import SimulationConfig
from repro.experiments.scenarios import scenario
from repro.live.supervisor import LiveConfig
from repro.serve.service import ServeConfig

__all__ = [
    "NOMINAL_SECONDS",
    "Scale",
    "SimInputs",
    "SweepInputs",
    "OverlayInputs",
    "ServeInputs",
    "GENERATORS",
    "warmup_config",
]

#: ``run_seconds`` of BENCHMARK.json: what the nominal sizes are tuned to.
NOMINAL_SECONDS = 8.0


@dataclass(frozen=True)
class Scale:
    """How much work one run does."""

    seconds: float = NOMINAL_SECONDS
    quick: bool = False

    def count(self, nominal: int, quick: int) -> int:
        """A repeat count: *quick* as is, *nominal* scaled by --seconds."""
        if self.quick:
            return quick
        return max(1, round(nominal * self.seconds / NOMINAL_SECONDS))


@dataclass(frozen=True)
class SimInputs:
    configs: Tuple[SimulationConfig, ...]


@dataclass(frozen=True)
class SweepInputs:
    #: One cold sweep (one lap) per grid; all cells distinct.
    grids: Tuple[Tuple[SimulationConfig, ...], ...]
    workers: int
    #: Warm passes over the union of the grids.
    warm_passes: int
    #: Warm passes per lap (one throughput sample each).
    warm_lap: int
    gets: int
    puts: int
    leases: int


@dataclass(frozen=True)
class OverlayInputs:
    config: LiveConfig
    #: Virtual seconds the booted overlay runs before timing starts.
    settle: float
    #: Virtual seconds timed, one lap each.
    timed: int


@dataclass(frozen=True)
class ServeInputs:
    config: LiveConfig
    settle: float
    serve: ServeConfig
    #: Request targets, in issue order.
    paths: Tuple[str, ...] = field(repr=False)
    #: Closed-loop clients (coroutines, each waits for its reply).
    clients: int
    #: Requests per lap (one throughput sample each).
    lap: int


def warmup_config() -> SimulationConfig:
    """The tiny cell sim workloads run once in set-up (lazy init done)."""
    return SimulationConfig(model="STAT", n=16, duration=900.0, warmup=300.0)


def sim_churn(seed: int, scale: Scale) -> SimInputs:
    if scale.quick:
        return SimInputs((scenario("SYNTH", 30, "test", seed=seed),))
    # The paper's §5 sweep cell at a bench size, three seeds: one lap
    # per cell, so the headline rate is a true median.
    return SimInputs(
        tuple(
            scenario("SYNTH", 120, "bench", seed=seed + i)
            for i in range(scale.count(3, 1))
        )
    )


def sim_scaleout(seed: int, scale: Scale) -> SimInputs:
    if scale.quick:
        n, duration, warmup, sample = 300, 400.0, 200.0, 100.0
    else:
        n, duration, warmup, sample = 2000, 480.0, 300.0, 60.0
    return SimInputs(
        tuple(
            SimulationConfig(
                model="STAT",
                n=n,
                duration=duration,
                warmup=warmup,
                sample_interval=sample,
                seed=seed + i,
                label="scale-out",
            )
            for i in range(scale.count(1, 1))
        )
    )


def sweep_fabric(seed: int, scale: Scale) -> SweepInputs:
    if scale.quick:
        sizes, window = (30,), "test"
    else:
        sizes, window = (30, 60), "bench"
    # Each grid is two sizes × two seeds — uneven cells, so the pool has
    # something to balance — and every grid takes fresh seeds.
    grids = tuple(
        tuple(
            scenario("SYNTH", n, window, seed=seed + 2 * g + i)
            for n in sizes
            for i in range(2)
        )
        for g in range(scale.count(3, 1))
    )
    return SweepInputs(
        grids=grids,
        workers=min(2, os.cpu_count() or 1),
        warm_passes=scale.count(100, 4),
        warm_lap=2 if scale.quick else 10,
        gets=scale.count(1000, 40),
        puts=scale.count(300, 10),
        leases=scale.count(300, 10),
    )


def overlay_steady(seed: int, scale: Scale) -> OverlayInputs:
    nodes = 16 if scale.quick else 100
    settle = 2.0 if scale.quick else 3.0
    timed = scale.count(16, 2)
    return OverlayInputs(
        config=LiveConfig(
            nodes=nodes,
            duration=settle + timed + 0.5,
            seed=seed,
            fault="WAN",
            label="avbench-overlay",
        ),
        settle=settle,
        timed=timed,
    )


#: The paper's uncompressed timing (60 s periods).  At the live stack's
#: default 1 s periods, 93 % of a request phase's wall is overlay
#: background; at 60 s it is a few percent, so serving is what is timed.
_PERIOD = 60.0

_GENEROUS = dict(
    global_rate=1e9, global_burst=1e9, client_rate=1e9, client_burst=1e9
)


def _serve_overlay(seed: int, scale: Scale) -> Tuple[LiveConfig, float, int]:
    nodes = 12 if scale.quick else 50
    settle = (4 if scale.quick else 12) * _PERIOD
    config = LiveConfig(
        nodes=nodes,
        duration=settle + 1.0,
        seed=seed,
        # WAN latency and jitter without its 1 % loss: a lost datagram
        # is a timed-out query, and the contract wants no failing ops.
        fault="WAN",
        fault_params={"loss": 0.0},
        protocol_period=_PERIOD,
        monitoring_period=_PERIOD,
        heartbeat_interval=30.0,
        introducer_ttl=150.0,
        introducer_sync_interval=60.0,
        sample_interval=120.0,
        label="avbench-serve",
    )
    return config, settle, nodes


def serve_verified(seed: int, scale: Scale) -> ServeInputs:
    config, settle, nodes = _serve_overlay(seed, scale)
    requests = scale.count(15_000, 120)
    # A fixed rotation over every node: each request is a full §3.3
    # query, and a subject comes round again only after ~N/clients query
    # latencies — longer than query_timeout, so no query overlaps the
    # previous one's deadline timer for the same subject.
    paths = tuple(f"/availability/{i % nodes}?l=3" for i in range(requests))
    return ServeInputs(
        config=config,
        settle=settle,
        serve=ServeConfig(
            cache_ttl=0.0, query_timeout=0.3, max_concurrency=256, **_GENEROUS
        ),
        paths=paths,
        clients=3 if scale.quick else 16,
        lap=60 if scale.quick else 1000,
    )


def serve_cached(seed: int, scale: Scale) -> ServeInputs:
    config, settle, nodes = _serve_overlay(seed, scale)
    requests = scale.count(150_000, 1500)
    # The legacy serve bench's shape: 5 % /nodes, the rest per-node reads
    # with a hot head (a fifth of the nodes draw 70 %), split over
    # /monitors, /availability?l=2 and /availability?l=1.  The route is a
    # function of the subject, so every subject has exactly one cache
    # key: a re-query comes only after the 2 s TTL, past the 1 s deadline
    # timer of the query that filled the entry (README, "Findings").
    rng = random.Random(seed * 10_007 + nodes)
    head = max(1, nodes // 5)
    routes = (
        "/monitors/{}", "/availability/{}?l=2",
        "/availability/{}?l=1", "/availability/{}?l=1",
        "/availability/{}?l=1", "/availability/{}?l=1",
        "/availability/{}?l=1", "/availability/{}?l=1",
    )
    paths: List[str] = []
    for _ in range(requests):
        if rng.random() < 0.05:
            paths.append("/nodes")
            continue
        hot = rng.random() < 0.7
        subject = rng.randrange(head if hot else nodes)
        paths.append(routes[subject % len(routes)].format(subject))
    return ServeInputs(
        config=config,
        settle=settle,
        serve=ServeConfig(
            cache_ttl=2.0, query_timeout=1.0, max_concurrency=256, **_GENEROUS
        ),
        paths=tuple(paths),
        clients=3 if scale.quick else 16,
        lap=500 if scale.quick else 10_000,
    )


GENERATORS: Dict[str, Any] = {
    "sim-churn": sim_churn,
    "sim-scaleout": sim_scaleout,
    "sweep-fabric": sweep_fabric,
    "overlay-steady": overlay_steady,
    "serve-verified": serve_verified,
    "serve-cached": serve_cached,
}
