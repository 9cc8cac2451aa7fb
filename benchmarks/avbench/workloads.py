"""The six workloads: what is set up, what is timed, what is checked.

Every workload has the same three steps.  ``setup`` builds whatever can
be built before the clock starts (repeated ``setup_repeats`` times by
the harness, which reports the median); ``measure`` enters
``timing.timed()`` around the timed phase — anything it does before that
(booting and settling an overlay) still counts as set-up; ``teardown``
releases what ``setup`` made.  ``measure`` returns an :class:`Outcome`:
the headline rate, operations attempted and failed, and the counts read
from public attributes after the run.  Outputs are checked after the
clock stops.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import hashlib
import json
import pathlib
import tempfile
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.condition import ConsistencyCondition
from repro.experiments.backends import LocalPoolBackend
from repro.experiments.orchestrator import run_configs
from repro.experiments.runner import run_simulation
from repro.experiments.store import SummaryStore, config_key, stable_key_hash
from repro.experiments.store_backends import SharedStoreBackend
from repro.experiments.summary import SimulationSummary
from repro.live.memory_transport import MemoryOverlay
from repro.serve.backend import memory_backend
from repro.serve.http import MemoryHttpClient
from repro.serve.service import AvailabilityService

from .daemon import StoreDaemon, lease_cycle
from .inputs import (
    OverlayInputs,
    ServeInputs,
    SimInputs,
    SweepInputs,
    warmup_config,
)

__all__ = ["Outcome", "WORKLOADS", "summary_digest", "store_key"]

PINS_PATH = pathlib.Path(__file__).with_name("pins.json")


@dataclass
class Outcome:
    """What one timed phase produced, besides its wall time."""

    #: Label of the laps whose median rate is the workload's
    #: ``work_per_s`` (its unit of work per second).
    headline: str
    attempted: int
    failed: int
    #: Per-layer counts, keyed by BENCHMARK.json name (absent = 0).
    counts: Dict[str, float] = field(default_factory=dict)
    #: One line per failed check, for the human reading stderr.
    problems: List[str] = field(default_factory=list)


def summary_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def store_key(config) -> str:
    """A cell's content address — what ``pins.json`` is keyed by."""
    return stable_key_hash(config_key(config))


def _load_pins() -> Dict[str, str]:
    return json.loads(PINS_PATH.read_text())["pins"]


def _summary_problem(config, text: str, pins: Dict[str, str]) -> Optional[str]:
    """Why this cell's summary JSON is wrong, or None when it is right.

    A pinned cell must hash to its pin.  Every cell, pinned or not, must
    survive a JSON round trip byte for byte and have processed events.
    """
    label = f"{config.model_key} n={config.n} seed={config.seed}"
    pinned = pins.get(store_key(config))
    if pinned is not None and summary_digest(text) != pinned:
        return f"{label}: summary SHA-256 differs from its pin"
    summary = SimulationSummary.from_json(text)
    if summary.to_json() != text:
        return f"{label}: summary JSON does not round-trip"
    if summary.events_processed <= 0:
        return f"{label}: no events processed"
    return None


class SimWorkload:
    """Serial ``run_simulation`` + ``summary().to_json()`` per cell."""

    setup_repeats = 5

    def setup(self, inputs: SimInputs, workdir: str) -> None:
        # One tiny cell: imports, registries and hash kernels are warm
        # before the clock starts.
        run_simulation(warmup_config()).summary().to_json()

    def teardown(self, state: None) -> None:
        pass

    def measure(self, inputs: SimInputs, state: None, timing) -> Outcome:
        counts = dict.fromkeys(
            (
                "sim.engine.events",
                "sim.engine.compactions",
                "net.network.messages",
                "core.condition.hash_evaluations",
                "core.relation.index_entries",
                "experiments.summary.json_bytes",
            ),
            0,
        )
        texts = []
        with timing.timed():
            for config in inputs.configs:
                result = run_simulation(config)
                text = result.summary().to_json()
                timing.lap("cell", result.events_processed)
                texts.append(text)
                relation = result.cluster.relation
                counts["sim.engine.events"] += result.events_processed
                counts["sim.engine.compactions"] += (
                    result.cluster.sim.heap_compactions
                )
                counts["net.network.messages"] += result.network.sent_messages
                counts["core.condition.hash_evaluations"] += (
                    relation.condition.hash_evaluations
                )
                counts["core.relation.index_entries"] = max(
                    counts["core.relation.index_entries"],
                    relation.index_entries(),
                )
                counts["experiments.summary.json_bytes"] += len(text)
                del result, relation  # one cell's object graph at a time
        pins = _load_pins()
        problems = [
            problem
            for config, text in zip(inputs.configs, texts)
            if (problem := _summary_problem(config, text, pins)) is not None
        ]
        return Outcome(
            headline="cell",
            attempted=len(inputs.configs),
            failed=len(problems),
            counts=counts,
            problems=problems,
        )


class SweepWorkload:
    """Cold pool sweep + warm resumes + object and lease traffic, all
    through one loopback store daemon."""

    setup_repeats = 3

    def setup(self, inputs: SweepInputs, workdir: str) -> StoreDaemon:
        root = tempfile.mkdtemp(prefix="store-", dir=workdir)
        return StoreDaemon(root).start()

    def teardown(self, state: StoreDaemon) -> None:
        state.stop()

    def measure(self, inputs: SweepInputs, state: StoreDaemon, timing) -> Outcome:
        if timing.profiling:
            timing.add_helper(state.cpu_profiler())
        cold_store = SummaryStore.open(state.url)
        warm_store = SummaryStore.open(state.url)
        client = SharedStoreBackend(state.url)
        with contextlib.closing(cold_store.backend), contextlib.closing(
            warm_store.backend
        ), contextlib.closing(client):
            return self._measure(inputs, timing, cold_store, warm_store, client)

    def _measure(
        self, inputs: SweepInputs, timing, cold_store, warm_store, client
    ) -> Outcome:
        configs = [config for grid in inputs.grids for config in grid]
        cells = len(configs)
        problems: List[str] = []
        failed = 0
        with timing.timed():
            cold = []
            for grid in inputs.grids:
                summaries = run_configs(
                    list(grid),
                    backend=LocalPoolBackend(inputs.workers),
                    store=cold_store,
                )
                # Simulated events, the sim workloads' unit of work, so
                # the pool and the store write-through read against
                # sim-churn.
                timing.lap("cold", sum(s.events_processed for s in summaries))
                cold += summaries
            cold_json = [summary.to_json() for summary in cold]

            done = 0
            while done < inputs.warm_passes:
                lap = min(inputs.warm_lap, inputs.warm_passes - done)
                for _ in range(lap):
                    warm = run_configs(
                        configs,
                        backend=LocalPoolBackend(inputs.workers),
                        store=warm_store,
                    )
                timing.lap("warm", cells * lap)
                done += lap
                # One pass per lap is compared byte for byte; the hit
                # counter below covers the rest.
                if [summary.to_json() for summary in warm] != cold_json:
                    failed += cells
                    problems.append("a warm pass differs from the cold sweep")

            names = [SummaryStore.name_for(config_key(c)) for c in configs]
            for index in range(inputs.gets):
                slot = index % cells
                if client.get(names[slot]) != cold_json[slot]:
                    failed += 1
            timing.lap("get", inputs.gets)
            for index in range(inputs.puts):
                client.put(f"avbench-{index % 32:02d}.json", cold_json[0])
            timing.lap("put", inputs.puts)
            for index in range(inputs.leases):
                if not lease_cycle(client, f"avbench-{index}"):
                    failed += 1
            timing.lap("lease", inputs.leases)

        pins = _load_pins()
        for config, text in zip(configs, cold_json):
            problem = _summary_problem(config, text, pins)
            if problem is not None:
                failed += 1
                problems.append(problem)
        warm_cells = inputs.warm_passes * cells
        if warm_store.hits != warm_cells or warm_store.writes:
            failed += abs(warm_cells - warm_store.hits) + warm_store.writes
            problems.append(
                f"warm passes: {warm_store.hits} hits, "
                f"{warm_store.writes} writes (want {warm_cells}, 0)"
            )
        if client.get("avbench-00.json") != cold_json[0]:
            failed += 1
            problems.append("a PUT object did not read back byte for byte")
        server = client.stat()["counters"]
        if server["server_errors"]:
            failed += server["server_errors"]
            problems.append(f"daemon reported {server['server_errors']} 5xx")
        busy = sum(summary.wall_seconds for summary in cold)
        cold_laps = [lap for lap in timing.laps if lap.label == "cold"]
        cold_wall = sum(lap.wall for lap in cold_laps)
        return Outcome(
            headline="cold",
            attempted=cells + warm_cells + inputs.gets + inputs.puts
            + inputs.leases,
            failed=failed,
            counts={
                "sim.engine.events": sum(s.events_processed for s in cold),
                "experiments.summary.json_bytes": sum(map(len, cold_json)),
                "experiments.store.hits": cold_store.hits + warm_store.hits,
                "experiments.store.writes": cold_store.writes
                + warm_store.writes,
                "experiments.store_server.requests": server["requests"],
                "experiments.orchestrator.cold_cells_per_s": cells
                / sum(lap.calibrated for lap in cold_laps),
                "experiments.orchestrator.warm_cells_per_s": timing.rate("warm"),
                "experiments.backends.pool_efficiency": busy
                / (inputs.workers * cold_wall),
            },
            problems=problems,
        )


class _OverlayWorkload:
    """Shared shape of the three in-memory overlay workloads: a fresh
    state directory per set-up, the timed phase inside the overlay's
    ``workload`` hook (the only public way onto its virtual-clock loop)."""

    setup_repeats = 1

    def setup(self, inputs, workdir: str) -> str:
        # Node state files persist across runs of one directory; a reused
        # one would boot nodes with another overlay's PS/TS.
        return tempfile.mkdtemp(prefix="overlay-", dir=workdir)

    def teardown(self, state: str) -> None:
        pass

    @staticmethod
    def _run(config, state_dir: str, hook):
        return MemoryOverlay(
            dataclasses.replace(config, state_dir=state_dir), workload=hook
        ).run()


class OverlayWorkload(_OverlayWorkload):
    """The live stack with serving absent: N nodes gossiping, timed one
    virtual second per lap once booted and settled."""

    def measure(self, inputs: OverlayInputs, state: str, timing) -> Outcome:
        delivered = [0, 0]

        async def hook(overlay: MemoryOverlay) -> None:
            await asyncio.sleep(inputs.settle)
            delivered[0] = overlay.network.delivered
            with timing.timed():
                for _ in range(inputs.timed):
                    await asyncio.sleep(1.0)
                    timing.lap("second", inputs.config.nodes)
            delivered[1] = overlay.network.delivered

        report = self._run(inputs.config, state, hook)
        undiscovered = report.expected_pairs - report.discovered_pairs
        problems = []
        if report.violations:
            problems.append(f"{report.violations} consistency violations")
        if undiscovered:
            problems.append(f"{undiscovered} expected pairs undiscovered")
        return Outcome(
            headline="second",
            attempted=report.expected_pairs,
            failed=report.violations + undiscovered,
            counts={
                "live.overlay.discovery_ratio": report.discovery_ratio,
                "live.overlay.virtual_s": float(inputs.timed),
                "live.memory_transport.datagrams": delivered[1] - delivered[0],
            },
            problems=problems,
        )


class ServeWorkload(_OverlayWorkload):
    """A closed loop of coroutine clients driving GETs through the HTTP
    surface of a service attached to a settled overlay."""

    def measure(self, inputs: ServeInputs, state: str, timing) -> Outcome:
        found: Dict[str, Any] = {}

        async def hook(overlay: MemoryOverlay) -> None:
            loop = asyncio.get_running_loop()
            started = time.perf_counter()
            await asyncio.sleep(inputs.settle)
            settle_wall = time.perf_counter() - started
            backend = memory_backend(overlay)
            await backend.start()
            service = AvailabilityService(backend, inputs.serve, clock=loop.time)
            http = MemoryHttpClient(service)
            latencies = array("d")
            statuses: Dict[int, int] = {}
            #: (subject, verified monitors) -> responses carrying it.
            answers: Dict[tuple, int] = {}
            timed_out = 0
            feed = iter(inputs.paths)

            async def client(number: int) -> None:
                nonlocal timed_out
                headers = {"X-Client-Id": f"avbench-{number}"}
                for path in feed:
                    sent = loop.time()
                    status, body, _ = await http.request(
                        "GET", path, headers=headers
                    )
                    latencies.append(loop.time() - sent)
                    statuses[status] = statuses.get(status, 0) + 1
                    monitors = body.get("verified_monitors")
                    if monitors is not None:
                        answer = (body["subject"], tuple(monitors))
                        answers[answer] = answers.get(answer, 0) + 1
                        if body["timed_out"]:
                            timed_out += 1
                    if len(latencies) % inputs.lap == 0:
                        timing.lap("requests", inputs.lap)
                        # Re-enter this frame: a profiler re-enabled by
                        # lap() only sees frames entered after it, and a
                        # client serving cache hits never suspends.
                        await asyncio.sleep(0)

            try:
                delivered = overlay.network.delivered
                with timing.timed():
                    virtual_start = loop.time()
                    await asyncio.gather(
                        *[client(number) for number in range(inputs.clients)]
                    )
                    virtual = loop.time() - virtual_start
            finally:
                await backend.close()
            found.update(
                settle_wall=settle_wall,
                virtual=virtual,
                latencies=latencies,
                statuses=statuses,
                answers=answers,
                timed_out=timed_out,
                datagrams=overlay.network.delivered - delivered,
                service=service,
            )

        report = self._run(inputs.config, state, hook)
        service: AvailabilityService = found["service"]
        requests = len(inputs.paths)
        # A verifier of the harness's own, so re-checking the answers
        # does not touch the overlay's hash-evaluation count.
        condition = ConsistencyCondition(
            inputs.config.resolved_k(),
            inputs.config.nodes,
            inputs.config.hash_algorithm,
        )
        forged = sum(
            responses
            for (subject, monitors), responses in found["answers"].items()
            if not all(condition.is_monitor_of(m, subject) for m in monitors)
        )
        not_ok = requests - found["statuses"].get(200, 0)
        problems = []
        for count, what in (
            (not_ok, "responses were not 200"),
            (found["timed_out"], "answers came from timed-out queries"),
            (forged, "answers named a monitor failing the condition"),
            (report.violations, "overlay consistency violations"),
        ):
            if count:
                problems.append(f"{count} {what}")
        latencies = sorted(found["latencies"])
        stats = service.cache.stats
        background = (
            found["settle_wall"] / inputs.settle * found["virtual"]
        ) / timing.wall_s
        return Outcome(
            headline="requests",
            attempted=requests,
            failed=not_ok + found["timed_out"] + forged + report.violations,
            counts={
                "apps.query.monitors_verified": service.metrics.monitors_verified,
                "apps.query.monitors_rejected": service.metrics.monitors_rejected,
                "apps.query.timed_out": service.metrics.queries_timed_out,
                # Nearest rank; at 15,000 samples p99 has 150 beyond it.
                "apps.query.virtual_p50_ms": 1e3
                * latencies[(len(latencies) - 1) // 2],
                "apps.query.virtual_p99_ms": 1e3
                * latencies[(len(latencies) * 99 - 1) // 100],
                "serve.cache.hit_ratio": stats.hit_ratio,
                "serve.cache.coalesced": stats.coalesced,
                "serve.ratelimit.shed": service.limiter.limited
                + service.metrics.shed_overload,
                "live.overlay.discovery_ratio": report.discovery_ratio,
                "live.overlay.virtual_s": found["virtual"],
                "live.overlay.background_share": background,
                "live.memory_transport.datagrams": found["datagrams"],
            },
            problems=problems,
        )


WORKLOADS = {
    "sim-churn": SimWorkload(),
    "sim-scaleout": SimWorkload(),
    "sweep-fabric": SweepWorkload(),
    "overlay-steady": OverlayWorkload(),
    "serve-verified": ServeWorkload(),
    "serve-cached": ServeWorkload(),
}
