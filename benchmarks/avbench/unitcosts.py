"""Unit costs: one layer's public API called in a loop, nothing else.

Each driver does a fixed number of operations and is repeated
``REPEATS`` times; the median is reported.  These are the numbers an
optimisation of a single layer should move first; the workloads then say
whether the end-to-end metric followed.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import random
import statistics
import time
import typing
from typing import Callable, Dict

from repro.core.condition import ConsistencyCondition
from repro.core.config import AvmonConfig
from repro.core.messages import (
    CvFetchRequest,
    CvPing,
    CvPong,
    HistoryRequest,
    MonitorPing,
    MonitorPong,
    Notify,
    ReportRequest,
)
from repro.core.node import AvmonNode
from repro.core.relation import MonitorRelation
from repro.experiments.runner import run_simulation
from repro.experiments.scenarios import scenario
from repro.experiments.store import SummaryStore, config_key, stable_key_hash
from repro.experiments.store_backends import SharedStoreBackend
from repro.experiments.summary import SimulationSummary, summarize
from repro.experiments.taskboard import TaskBoard
from repro.live import control as _control  # noqa: F401 — registers wire types
from repro.live.codec import decode, encode, wire_types
from repro.live.memory_transport import (
    MemoryNetwork,
    MemoryTransport,
    run_virtual,
)
from repro.live.transport import UdpTransport
from repro.net.network import Network, SimHost
from repro.serve.cache import TtlCache
from repro.serve.http import MemoryHttpClient
from repro.serve.ratelimit import RateLimiter
from repro.serve.service import AvailabilityService
from repro.sim.engine import Simulator

from .daemon import StoreDaemon, lease_cycle
from .timing import calibrate

__all__ = ["measure_unit_costs"]

REPEATS = 5


def _median_seconds(fn: Callable[[], object], repeats: int) -> float:
    """Median wall seconds of *fn* over *repeats* calls."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _noop() -> None:
    return None


class _Sink:
    def handle_message(self, message) -> None:
        return None


class _StubRuntime:
    """The smallest ``NodeRuntime``: swallows sends, time stands still."""

    def __init__(self) -> None:
        self.rng = random.Random(5)
        self.sent = 0

    def now(self) -> float:
        return 1.0

    def send(self, dst, message) -> None:
        self.sent += 1

    def schedule(self, delay, callback, *args):
        return None

    def choose_bootstrap(self, exclude):
        return None

    def target_in_system(self, node) -> bool:
        return True


class _StubBackend:
    """What ``/healthz`` reads from an overlay backend."""

    def nodes(self):
        return ()


def _sample_value(annotation):
    """A plausible wire value for one dataclass field annotation."""
    origin = typing.get_origin(annotation)
    if origin is tuple:
        args = typing.get_args(annotation)
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_sample_value(args[0]) for _ in range(8))
        return tuple(_sample_value(arg) for arg in args)
    if annotation is bool:
        return True
    if annotation is int:
        return 7
    if annotation is float:
        return 0.625
    return "x"


def _wire_samples() -> list:
    """One instance of every registered wire type (the codec's mix)."""
    samples = []
    for cls in wire_types():
        hints = typing.get_type_hints(cls)
        samples.append(
            cls(
                **{
                    f.name: _sample_value(hints[f.name])
                    for f in dataclasses.fields(cls)
                }
            )
        )
    return samples


def measure_unit_costs(workdir: str, *, quick: bool) -> Dict[str, float]:
    """Every unit-cost metric, keyed by its ``BENCHMARK.json`` name."""
    shrink = 10 if quick else 1
    repeats = 3 if quick else REPEATS
    costs: Dict[str, float] = {}

    def per_op(name: str, ops: int, fn: Callable[[], object], unit: float) -> None:
        costs[name] = _median_seconds(fn, repeats) / ops * unit

    def per_second(name: str, ops: int, fn: Callable[[], object]) -> None:
        costs[name] = ops / _median_seconds(fn, repeats)

    # -- host fingerprint: the loop the timed phases calibrate against -------
    costs["host.calib_loops_per_s"] = calibrate()

    # -- sim.engine / net.network ---------------------------------------------
    events = 40_000 // shrink

    def engine(schedule_name: str) -> Callable[[], None]:
        def run() -> None:
            sim = Simulator()
            schedule = getattr(sim, schedule_name)
            for index in range(events):
                schedule(float(index % 60), _noop)
            sim.run_until(60.0)

        return run

    per_op("sim.engine.schedule_call_ns", events, engine("schedule_call"), 1e9)
    per_op("sim.engine.schedule_ns", events, engine("schedule"), 1e9)

    messages = 20_000 // shrink
    sim = Simulator()
    network = Network(sim, rng=random.Random(0))
    hosts = [SimHost(network, index, random.Random(index)) for index in (0, 1)]
    for host in hosts:
        host.attach(_Sink())
        host.bring_up()
    ping = CvPing(0, 1)

    def pump() -> None:
        send = hosts[0].send
        for _ in range(messages):
            send(1, ping)
        sim.run_until(sim.now + 1.0)

    per_op("net.network.deliver_ns", messages, pump, 1e9)

    # -- core ---------------------------------------------------------------
    condition = ConsistencyCondition(k=13, n=10_000)
    checks = 30_000 // shrink
    rng = random.Random(1)
    pairs = [(rng.randrange(2000), rng.randrange(2000)) for _ in range(checks)]

    def hold_all() -> None:
        holds = condition.holds
        for a, b in pairs:
            holds(a, b)

    per_op("core.condition.holds_ns", checks, hold_all, 1e9)

    universe = 10_000 // shrink
    probes = 3

    def scan() -> int:
        scan_condition = ConsistencyCondition(k=13, n=10_000)
        relation = MonitorRelation(scan_condition)
        relation.add_nodes(range(universe))
        for probe in range(probes):
            relation.targets_of(probe)
        return scan_condition.hash_evaluations

    scanned = scan()  # identical every call: the universe is fixed
    per_second("core.relation.scan_pairs_per_s", scanned, scan)

    node_relation = MonitorRelation(ConsistencyCondition(k=8, n=200))
    node_relation.add_nodes(range(200))
    node = AvmonNode(
        0, AvmonConfig.paper_defaults(200), node_relation, _StubRuntime()
    )
    mix = []
    for index in range(1, 101):
        mix += [
            Notify(index, index, 0),
            Notify(index, 0, index),
            MonitorPing(index, index),
            MonitorPong(index, index),
            CvPing(index, index),
            CvPong(index, index),
            CvFetchRequest(index, index),
            ReportRequest(index, 0, 3),
            HistoryRequest(index, index),
        ]
    rounds = max(1, 20 // shrink)

    def handle_all() -> None:
        handle = node.handle_message
        for _ in range(rounds):
            for message in mix:
                handle(message)

    per_op("core.node.handle_message_ns", rounds * len(mix), handle_all, 1e9)

    # -- experiments: summary, store ------------------------------------------
    config = scenario("SYNTH", 60, "test", seed=1)
    result = run_simulation(config)
    summary = summarize(result)
    text = summary.to_json()
    loops = max(1, 10 // shrink)

    def times(fn: Callable[[], object]) -> Callable[[], None]:
        def run() -> None:
            for _ in range(loops):
                fn()

        return run

    per_op("experiments.summary.build_ms", loops, times(lambda: summarize(result)), 1e3)
    per_op("experiments.summary.to_json_ms", loops, times(summary.to_json), 1e3)
    per_op(
        "experiments.summary.from_json_ms",
        loops,
        times(lambda: SimulationSummary.from_json(text)),
        1e3,
    )
    key = config_key(config)
    keys = 200 // shrink

    def key_all() -> None:
        for _ in range(keys):
            stable_key_hash(config_key(config))

    per_op("experiments.store.key_us", keys, key_all, 1e6)
    store = SummaryStore(os.path.join(workdir, "unit-store"))
    per_op("experiments.store.save_ms", loops, times(lambda: store.save(key, summary)), 1e3)
    per_op("experiments.store.load_ms", loops, times(lambda: store.load(key)), 1e3)

    board = TaskBoard()
    claims = 300 // shrink

    def lease_in_process() -> None:
        for index in range(claims):
            task_id = f"unit-{index}"
            board.publish(task_id, "payload")
            board.claim("worker")
            board.done(task_id, "worker", {"persisted": True})

    per_op("experiments.taskboard.claim_us", claims, lease_in_process, 1e6)

    # -- experiments: store daemon over loopback HTTP -------------------------
    gets, puts, leases = 200 // shrink, 100 // shrink, 60 // shrink
    with StoreDaemon(os.path.join(workdir, "unit-daemon")) as daemon:
        client = SharedStoreBackend(daemon.url)
        try:
            client.put("unit.json", text)

            def get_all() -> None:
                for _ in range(gets):
                    client.get("unit.json")

            def put_all() -> None:
                for index in range(puts):
                    client.put(f"unit-{index % 8}.json", text)

            def lease_all() -> None:
                for index in range(leases):
                    lease_cycle(client, f"unit-{index}")

            per_second("experiments.store_server.get_per_s", gets, get_all)
            per_second("experiments.store_server.put_per_s", puts, put_all)
            per_second(
                "experiments.taskboard.lease_cycles_per_s", leases, lease_all
            )
        finally:
            client.close()

    # -- live ---------------------------------------------------------------
    samples = _wire_samples()
    encoded = [encode(sample) for sample in samples]
    codec_rounds = max(1, 30 // shrink)

    def encode_all() -> None:
        for _ in range(codec_rounds):
            for sample in samples:
                encode(sample)

    def decode_all() -> None:
        for _ in range(codec_rounds):
            for data in encoded:
                decode(data)

    codec_ops = codec_rounds * len(samples)
    per_op("live.codec.encode_us", codec_ops, encode_all, 1e6)
    per_op("live.codec.decode_us", codec_ops, decode_all, 1e6)

    datagrams = 3_000 // shrink
    memory_wall = run_virtual(_memory_delivery(datagrams, repeats))
    costs["live.memory_transport.deliver_us"] = memory_wall / datagrams * 1e6
    udp_wall = asyncio.run(_udp_loopback(datagrams, repeats))
    costs["live.transport.udp_loopback_dgrams_per_s"] = datagrams / udp_wall

    # -- serve --------------------------------------------------------------
    requests = 1_000 // shrink
    costs["serve.http.parse_render_us"] = (
        asyncio.run(_healthz(requests, repeats)) / requests * 1e6
    )
    costs["serve.cache.get_hit_us"] = (
        asyncio.run(_cache_hits(requests * 10, repeats)) / (requests * 10) * 1e6
    )
    limiter = RateLimiter(
        global_rate=1e9, global_burst=1e9, client_rate=1e9, client_burst=1e9,
        clock=lambda: 0.0,
    )
    limiter_checks = 20_000 // shrink

    def check_all() -> None:
        check = limiter.check
        for index in range(limiter_checks):
            check("c3" if index & 1 else "c4")

    per_op("serve.ratelimit.check_us", limiter_checks, check_all, 1e6)
    return costs


async def _memory_delivery(datagrams: int, repeats: int) -> float:
    """Median wall seconds to push *datagrams* through the memory hub."""
    network = MemoryNetwork()
    received = []
    sender = MemoryTransport(network, lambda message, addr: None)
    receiver = MemoryTransport(network, lambda message, addr: received.append(1))
    message = CvPing(1, 2)
    samples = []
    for _ in range(repeats):
        received.clear()
        start = time.perf_counter()
        for _ in range(datagrams):
            sender.send_to(receiver.local_address, message)
        while len(received) < datagrams:
            await asyncio.sleep(0)
        samples.append(time.perf_counter() - start)
    sender.close()
    receiver.close()
    return statistics.median(samples)


async def _udp_loopback(datagrams: int, repeats: int) -> float:
    """Median wall seconds to move *datagrams* over a real loopback socket.

    Sent in windows the receiver acknowledges by count, so the kernel's
    receive buffer never overflows and every datagram arrives.
    """
    received = []
    sender = await UdpTransport.create(lambda message, addr: None)
    receiver = await UdpTransport.create(lambda message, addr: received.append(1))
    message = CvPing(1, 2)
    window = 32
    samples = []
    try:
        for _ in range(repeats):
            received.clear()
            start = time.perf_counter()
            sent = 0
            while sent < datagrams:
                burst = min(window, datagrams - sent)
                for _ in range(burst):
                    sender.send_to(receiver.local_address, message)
                sent += burst
                deadline = time.perf_counter() + 2.0
                while len(received) < sent:
                    if time.perf_counter() > deadline:
                        raise OSError("loopback UDP datagrams went missing")
                    await asyncio.sleep(0)
            samples.append(time.perf_counter() - start)
    finally:
        sender.close()
        receiver.close()
    return statistics.median(samples)


async def _healthz(requests: int, repeats: int) -> float:
    """Median wall seconds for *requests* ``GET /healthz`` round trips."""
    service = AvailabilityService(_StubBackend(), clock=lambda: 0.0)
    http = MemoryHttpClient(service)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(requests):
            status, _body, _headers = await http.get("/healthz")
            if status != 200:
                raise OSError(f"/healthz answered {status}")
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


async def _cache_hits(lookups: int, repeats: int) -> float:
    """Median wall seconds for *lookups* hits on one cached key."""
    cache = TtlCache(ttl=60.0, clock=lambda: 0.0)

    async def load() -> int:
        return 1

    await cache.get("key", load)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(lookups):
            await cache.get("key", load)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)
