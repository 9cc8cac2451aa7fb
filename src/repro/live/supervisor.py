"""Boot, churn, scrape and tear down a live AVMON overlay.

:class:`LiveSupervisor` is the deployment harness and the only
orchestration loop.  What differs between the worlds an overlay runs in
sits behind a *fabric* (:class:`ProcessFabric`): by default one OS process
per node (:mod:`repro.live.node_main`) over UDP on the wall clock; in
tests and benches, in-loop nodes over a memory hub on a virtual clock
(:class:`~repro.live.memory_transport.MemoryFabric`).  It starts the
introducer, spawns the nodes, waits for the overlay to assemble, and then

* **injects churn** through any component registered under the ``churn``
  kind — the supervisor implements the same
  :class:`~repro.churn.base.ChurnDriver` interface the simulator's cluster
  does, except ``request_leave`` is a graceful kill (SIGTERM: the node
  persists state and says goodbye), ``request_death`` a hard one
  (SIGKILL), and ``request_rejoin`` respawns the node against its
  persistent state file, so SYNTH and friends drive real churn unmodified;
* **injects one-shot crashes** (``crash_after``/``chaos``): hard kill now,
  respawn after a configurable downtime — the failure the consistency
  condition exists to survive;
* **scrapes per-node metrics** over status probes on a sampling
  cadence, and at teardown hands them to
  :func:`~repro.live.report.build_live_report`, optionally persisting the
  summary to a :class:`~repro.experiments.store.SummaryStore` under
  :func:`~repro.live.config.live_config_key`.

What a deployment is lives in :mod:`repro.live.config`; what a run
measured (the pair audit, the summary, the report) in
:mod:`repro.live.report`.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..churn import models as _churn_models  # noqa: F401 — registers STAT/SYNTH*
from ..core.hashing import NodeId
from ..experiments.store import SummaryStore
from ..obs.journal import journal_from_env
from ..registry import resolve
from .config import LiveConfig, live_config_key
from .control import (
    ChaosReply,
    ChaosRequest,
    DownAck,
    DownRequest,
    FaultReply,
    FaultRequest,
    FaultUpdate,
    OverlayInfoReply,
    OverlayInfoRequest,
    OverlayStatusReply,
    OverlayStatusRequest,
    ServeStatusRequest,
    StatusReply,
    StatusRequest,
)
from .faults import SUPERVISOR, FaultPlan, introducer_label
from .introducer import IntroducerGroup
from .report import LiveReport, audit_pairs, build_live_report
from .runtime import LiveNodeSpec, StateFiles
from .transport import Address, UdpTransport, wait_for

__all__ = [
    "LiveSupervisor",
    "ProcessFabric",
    "StatusProber",
    "control_call",
    "run_live",
]


@dataclass
class _NodeHandle:
    """Supervisor-side bookkeeping for one overlay member."""

    node: NodeId
    spec: LiveNodeSpec
    #: What the fabric's ``spawn`` returned for the current life.
    process: Any = None
    first_spawn: float = 0.0
    #: The *commanded* state: flips at the request, ahead of the fabric.
    alive: bool = False
    dead: bool = False
    up_since: Optional[float] = None
    #: Length of the most recently *closed* process life, in seconds.
    last_life_seconds: float = 0.0
    #: Tail of this node's lifecycle chain (see ``_lifecycle``).
    task: Optional[asyncio.Task] = None


class _WallSim:
    """The ``sim`` facade churn models schedule against, on the fabric's
    monotonic clock (a virtual clock warps ``call_later`` too)."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self._loop = asyncio.get_running_loop()
        self._clock = clock
        self._t0 = clock()
        self._handles: List[asyncio.TimerHandle] = []

    @property
    def now(self) -> float:
        return self._clock() - self._t0

    def schedule(self, delay: float, callback, *args) -> asyncio.TimerHandle:
        handle = self._loop.call_later(max(0.0, delay), callback, *args)
        self._handles.append(handle)
        if len(self._handles) > 256:
            # Drop fired/cancelled handles so a churny overlay (thousands
            # of transitions per hour) does not grow this list unboundedly.
            now = self._loop.time()
            self._handles = [
                h for h in self._handles if not h.cancelled() and h.when() > now
            ]
        return handle

    def schedule_at(self, when: float, callback, *args) -> asyncio.TimerHandle:
        return self.schedule(when - self.now, callback, *args)

    # The engine's fast-lane names; churn models schedule births/deaths
    # and trace replays through these.
    schedule_call = schedule
    schedule_call_at = schedule_at

    def cancel_all(self) -> None:
        for handle in self._handles:
            handle.cancel()
        self._handles.clear()


def _log_path(spec: LiveNodeSpec) -> pathlib.Path:
    return pathlib.Path(spec.state_file).with_suffix(".log")


def _log_tail(spec: LiveNodeSpec) -> str:
    """The last 20 lines, within the last 2 KiB, of a node's log, under a
    header line ("" if it has none: the memory fabric writes no logs)."""
    try:
        with open(_log_path(spec), "rb") as log:
            log.seek(max(0, log.seek(0, os.SEEK_END) - 2048))
            data = log.read()
    except OSError:
        return ""
    tail = "\n".join(data.decode("utf-8", "replace").splitlines()[-20:])
    return f"\n--- node {spec.node} log (tail) ---\n{tail}" if tail else ""


class ProcessFabric:
    """The production fabric: one OS process per node, UDP, wall clocks.

    This surface is everything :class:`LiveSupervisor` knows about where
    an overlay runs; :class:`~repro.live.memory_transport.MemoryFabric`
    is the only other implementation.
    """

    #: Epoch timebase, and the clock timeouts and lives are measured on.
    clock = staticmethod(time.time)
    monotonic = staticmethod(time.monotonic)

    def __init__(self, host: str) -> None:
        #: What infrastructure binds and nodes announce in ``Hello``.
        self.host = host
        #: Node state snapshots: the files the node processes write.
        self.states = StateFiles()

    def transport_factory(self, label):
        """Async ``(handler, host, port) -> endpoint``; no hub reads the
        fault *label* on UDP."""
        return UdpTransport.create

    def apply_fault_plan(self, plan_json: str) -> bool:
        """True when applied at the fabric's hub.  Not here: each process
        injects its own faults, so the plan travels in specs and pushes."""
        return False

    async def spawn(self, spec: LiveNodeSpec) -> subprocess.Popen:
        """Fire-and-poll: the process registers on its own time."""
        src_root = pathlib.Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src_root), env.get("PYTHONPATH")) if p
        )
        # stderr goes to a per-node log next to the state file (not
        # /dev/null): a node whose ticks raise logs there, and the file is
        # the first place to look when a gate fails.
        log_path = _log_path(spec)
        try:
            stderr = open(log_path, "ab")
        except OSError:
            stderr = subprocess.DEVNULL
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.live.node_main",
                "--spec",
                spec.to_json(),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
            start_new_session=True,
        )
        if stderr is not subprocess.DEVNULL:
            stderr.close()  # the child holds its own descriptor now
        return process

    async def kill(self, process: subprocess.Popen, *, graceful: bool) -> None:
        """SIGTERM (persist state, say goodbye) or SIGKILL; returns at once."""
        if process.poll() is None:
            try:
                process.send_signal(
                    signal.SIGTERM if graceful else signal.SIGKILL
                )
            except OSError:
                pass

    def exited(self, process: subprocess.Popen) -> bool:
        return process.poll() is not None

    async def reap(
        self, processes: Sequence[subprocess.Popen], timeout: float = 5.0
    ) -> None:
        """Wait for signalled processes to exit; SIGKILL the stragglers."""
        deadline = time.monotonic() + timeout
        for process in processes:
            while process.poll() is None and time.monotonic() < deadline:
                await asyncio.sleep(0.05)
            if process.poll() is None:
                process.kill()
                await asyncio.sleep(0)


class StatusProber:
    """Per-node status probing with per-attempt timeouts and retries.

    The old scrape sent one probe per node and waited a single blanket
    timeout: one partitioned or dead node stalled the whole scrape for the
    full timeout, and a single lost datagram (10 % loss is a *configured*
    regime now) silently blanked that node's sample.  Here every node is
    probed concurrently on its own retry schedule — ``attempts`` probes,
    each waiting ``timeout / attempts`` — so responsive nodes resolve on
    their first reply, lossy paths get retried, and an unreachable node
    costs only its own bounded budget, never anyone else's.
    """

    def __init__(self) -> None:
        self._waiters: Dict[Tuple[NodeId, int], asyncio.Future] = {}
        self._seq = 0

    def on_reply(self, message: Any, _addr: Address) -> None:
        """Transport handler: resolve the waiter a reply belongs to."""
        if not isinstance(message, StatusReply):
            return
        waiter = self._waiters.pop((message.node, message.probe), None)
        if waiter is not None and not waiter.done():
            waiter.set_result(message)

    async def probe(
        self,
        transport,
        entries: Sequence[Tuple[NodeId, str, int]],
        *,
        timeout: float = 1.0,
        attempts: int = 3,
    ) -> Dict[NodeId, StatusReply]:
        """One status sweep of *entries*; missing nodes are simply absent."""
        if not entries:
            return {}
        attempts = max(1, attempts)
        per_attempt = max(timeout / attempts, 1e-3)
        loop = asyncio.get_running_loop()

        async def probe_one(node: NodeId, host: str, port: int):
            # One shared future across every attempt: a retry adds another
            # outstanding probe id, it never abandons the earlier ones, so
            # a reply that takes longer than one attempt window (a
            # high-latency fault plan, a loaded host) still resolves the
            # node — the retries only add datagrams, never shrink the
            # listening window below the full timeout.
            future: asyncio.Future = loop.create_future()
            probe_ids = []
            try:
                for _ in range(attempts):
                    self._seq += 1
                    probe_id = self._seq
                    probe_ids.append(probe_id)
                    self._waiters[(node, probe_id)] = future
                    transport.send_to(
                        (host, port), StatusRequest(probe=probe_id)
                    )
                    try:
                        # shield: wait_for must not cancel the shared
                        # future on a per-attempt timeout.
                        return node, await wait_for(
                            asyncio.shield(future), per_attempt
                        )
                    except asyncio.TimeoutError:
                        continue
                return node, None
            finally:
                for probe_id in probe_ids:
                    self._waiters.pop((node, probe_id), None)

        results = await asyncio.gather(
            *(probe_one(node, host, port) for node, host, port in entries)
        )
        return {node: reply for node, reply in results if reply is not None}


class LiveSupervisor:
    """Owns one overlay's lifecycle; also the live ``ChurnDriver``."""

    #: Seconds granted for the overlay to fully register before failing.
    BOOT_TIMEOUT_BASE = 15.0

    def __init__(
        self,
        config: LiveConfig,
        *,
        store: Optional[SummaryStore] = None,
        journal=None,
        fabric=None,
        plan: Optional[FaultPlan] = None,
        workload: Optional[Callable[["LiveSupervisor"], Any]] = None,
    ) -> None:
        self.config = config
        self.store = store
        self.fabric = fabric if fabric is not None else ProcessFabric(config.host)
        #: Boot-time fault plan (also keys the store cell); an explicit
        #: one overrides the config's ``fault`` component.
        self.plan = plan if plan is not None else config.resolved_fault_plan()
        #: Async ``workload(supervisor)``: started once the overlay is up,
        #: awaited before the final scrape, result kept below.
        self._workload = workload
        self.workload_result: Any = None
        self.rng = random.Random(config.seed * 7919 + 13)
        self.condition = config.avmon().condition()
        # Lifecycle event journal (``repro.obs``): in-memory by default,
        # sunk to a JSONL file when $AVMON_JOURNAL (or the caller) says so.
        self.journal = journal if journal is not None else journal_from_env()
        self.introducer = IntroducerGroup(
            config.introducers,
            ttl=config.introducer_ttl,
            epoch=self.fabric.clock(),
            clock=self.fabric.monotonic,
            journal=self.journal,
            sync_interval=config.introducer_sync_interval,
        )
        self.sim: Optional[_WallSim] = None
        self._handles: Dict[NodeId, _NodeHandle] = {}
        self._next_id = 0
        self._model = None
        self._running = False
        self._stop_early = asyncio.Event()
        self._state_dir: Optional[pathlib.Path] = None
        self._scraper = None
        self._control = None
        self._prober = StatusProber()
        #: JSON of the current fault plan ("" = perfect network).
        self._fault_json = "" if self.plan.is_null() else self.plan.to_json()
        #: Whether the fabric applied the plan at its hub (else: per node).
        self._hub_faults = False
        #: True once an operator replaced the plan at runtime (enables the
        #: per-scrape re-broadcast that converges nodes that missed it).
        self._fault_pushed = False
        #: Last known address of every node ever registered: a plan that
        #: severs node->introducer traffic empties the directory, and the
        #: heal must still reach those nodes.
        self._known_addresses: Dict[NodeId, Address] = {}
        self._crash_victims: List[NodeId] = []
        self._memory_series: Dict[NodeId, List[float]] = {}
        self._last_statuses: Dict[NodeId, StatusReply] = {}
        #: Attached serving front end (``--serve``): the HTTP server, its
        #: service (for control-plane status projection) and its backend.
        self._serve_server = None
        self._serve_service = None
        self._serve_backend = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def run(self) -> LiveReport:
        """Boot the overlay, run it for the configured duration, report."""
        wall_start = time.perf_counter()
        config, fabric = self.config, self.fabric
        started = fabric.monotonic()
        self._hub_faults = fabric.apply_fault_plan(self._fault_json)
        await self.introducer.start(
            fabric.host,
            0,
            transport_factories=[
                fabric.transport_factory(introducer_label(index))
                for index in range(config.introducers)
            ],
        )
        self.journal.emit(
            "live.run.start",
            nodes=config.nodes,
            seed=config.seed,
            duration=config.duration,
            label=config.label,
        )
        self.sim = _WallSim(fabric.monotonic)
        workload_task: Optional[asyncio.Task] = None
        try:
            self._state_dir = (
                pathlib.Path(config.state_dir)
                if config.state_dir
                else pathlib.Path(tempfile.mkdtemp(prefix="avmon-live-"))
            )
            try:
                self._state_dir.mkdir(parents=True, exist_ok=True)
            except OSError as error:
                raise RuntimeError(
                    f"cannot use state dir {self._state_dir}: {error}"
                ) from error
            bind = fabric.transport_factory(SUPERVISOR)
            self._scraper = await bind(self._prober.on_reply, fabric.host, 0)
            if config.control_port >= 0:
                try:
                    self._control = await bind(
                        self._on_control, fabric.host, config.control_port
                    )
                except OSError:
                    # Port taken (another overlay up?): fall back to
                    # ephemeral so the run proceeds — and say so, or the
                    # operator's status/chaos/down commands would target
                    # the *other* overlay.
                    self._control = await bind(self._on_control, fabric.host, 0)
                    print(
                        f"live: control port {config.control_port} in use; "
                        f"this overlay's control is "
                        f"{fabric.host}:{self._control.local_address[1]}",
                        file=sys.stderr,
                    )
            self._running = True
            for _ in range(config.nodes):
                await self._up(self._new_handle())
            await self._await_boot()
            if config.serve_port is not None and config.serve_port >= 0:
                await self._start_serve()
            self._bind_churn()
            if config.crash_after is not None:
                self.sim.schedule(config.crash_after, self._inject_crash)
            if config.kill_introducer_after is not None:
                self.sim.schedule(
                    config.kill_introducer_after,
                    self.introducer.kill_primary,
                )
            if self._workload is not None:
                workload_task = asyncio.create_task(self._workload(self))
            await self._measurement_window()
            await self._settle()
            if workload_task is not None:
                # Run to completion even past the deadline: a half-driven
                # request schedule would be nondeterministic.
                self.workload_result = await workload_task
            # The final scrape feeds the audit: retry harder, so a lossy
            # regime degrades the *measured* discovery ratio, not the
            # measurement itself (6 probe losses in a row at 20% loss is
            # already < 0.1% per node).
            statuses = await self.scrape(
                timeout=max(2.0, config.ping_timeout * 12), attempts=6
            )
            self._last_statuses = statuses
            final_alive = self.introducer.alive_count()
        finally:
            await self._teardown(workload_task)
        self.journal.emit(
            "live.run.end",
            alive=final_alive,
            # Fabric seconds: a virtual-clock journal stays byte-identical.
            elapsed_s=round(fabric.monotonic() - started, 3),
        )
        report = build_live_report(
            config,
            self.condition,
            statuses,
            crash_victims=self._crash_victims,
            final_alive=final_alive,
            elapsed=time.perf_counter() - wall_start,
            join_times={
                node: handle.first_spawn
                for node, handle in self._handles.items()
            },
            life_seconds=self.life_seconds,
            memory_series=self._memory_series,
            n_longterm=self._next_id,
        )
        if self.store is not None:
            path = self.store.save(
                live_config_key(config, plan=self.plan), report.summary
            )
            report.store_path = str(path) if path is not None else None
        return report

    async def _await_boot(self) -> None:
        monotonic = self.fabric.monotonic
        deadline = monotonic() + (
            self.BOOT_TIMEOUT_BASE + 0.25 * self.config.nodes
        )
        while monotonic() < deadline:
            if self.introducer.alive_count() >= self.config.nodes:
                return
            dead = [
                h
                for h in self._handles.values()
                if h.process is not None and self.fabric.exited(h.process)
            ]
            if dead:
                # Read now: teardown removes a temp state dir, logs and all.
                tails = "".join(_log_tail(h.spec) for h in dead)
                raise RuntimeError(
                    f"node process(es) {sorted(h.node for h in dead)} "
                    f"exited during boot{tails}"
                )
            await asyncio.sleep(0.1)
        raise RuntimeError(
            f"overlay failed to assemble: "
            f"{self.introducer.alive_count()}/{self.config.nodes} registered"
        )

    def _bind_churn(self) -> None:
        factory = resolve("churn", self.config.churn)
        self._model = factory(
            self.config.nodes,
            random.Random(self.config.seed + 7919),
            churn_per_hour=self.config.churn_per_hour,
            birth_death_per_day=self.config.birth_death_per_day,
        )
        self._model.bind(self)
        self._model.setup()
        for handle in self._handles.values():
            if handle.alive:
                self._model.on_node_up(handle.node)

    async def _measurement_window(self) -> None:
        monotonic = self.fabric.monotonic
        deadline = monotonic() + self.config.duration
        next_sample = monotonic() + self.config.sample_interval
        while monotonic() < deadline and not self._stop_early.is_set():
            # An early `down` is noticed at the next 0.25 s tick.
            await asyncio.sleep(min(0.25, deadline - monotonic()))
            if monotonic() >= next_sample:
                next_sample = monotonic() + self.config.sample_interval
                self._rebroadcast_fault_plan()
                statuses = await self.scrape(
                    timeout=max(0.5, self.config.ping_timeout * 4)
                )
                self._last_statuses = statuses
                self.journal.emit(
                    "live.scrape",
                    answered=len(statuses),
                    alive=self.introducer.alive_count(),
                )
                for node, status in statuses.items():
                    self._memory_series.setdefault(node, []).append(
                        float(status.memory_entries)
                    )

    async def _start_serve(self) -> None:
        """Attach the HTTP availability front end to this overlay.

        Imported lazily: the supervisor must stay importable (and the
        overlay bootable) even if the serve layer is absent or broken.
        """
        from ..serve.backend import OverlayBackend
        from ..serve.http import serve_http
        from ..serve.service import AvailabilityService, ServeConfig

        # One deadline for every query: the service passes its own
        # query_timeout to each backend.query.
        config = ServeConfig(query_timeout=max(2.0, self.config.ping_timeout * 8))
        backend = OverlayBackend(
            self.condition,
            self.introducer.address,
            host=self.fabric.host,
            query_timeout=config.query_timeout,
        )
        await backend.start()
        service = AvailabilityService(backend, config)
        server = await serve_http(
            service, self.fabric.host, self.config.serve_port
        )
        self._serve_backend = backend
        self._serve_service = service
        self._serve_server = server
        port = server.sockets[0].getsockname()[1]
        self.journal.emit("live.serve_started", port=port)
        print(
            f"live: serving availability on "
            f"http://{self.fabric.host}:{port}",
            file=sys.stderr,
        )

    async def _stop_serve(self) -> None:
        if self._serve_server is not None:
            self._serve_server.close()
            try:
                await self._serve_server.wait_closed()
            except Exception:  # noqa: BLE001 — teardown is best-effort
                pass
            self._serve_server = None
        if self._serve_backend is not None:
            await self._serve_backend.close()
            self._serve_backend = None

    async def _settle(self) -> None:
        """Let lifecycle steps under way (a respawn mid-boot) finish
        before the final scrape; a failed step fails the run here."""
        while True:
            tasks = [h.task for h in self._handles.values() if h.task is not None]
            pending = [task for task in tasks if not task.done()]
            if not pending:
                for task in tasks:
                    task.result()
                return
            await asyncio.wait(pending)

    async def _teardown(self, workload_task: Optional[asyncio.Task]) -> None:
        self._running = False
        self.journal.emit("live.teardown")
        await self._stop_serve()
        if self.sim is not None:
            self.sim.cancel_all()
        # Fixed order (workload, then nodes by id): determinism.
        tasks = [workload_task] + [h.task for h in self._handles.values()]
        tasks = [task for task in tasks if task is not None]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        processes = [
            h.process for h in self._handles.values() if h.process is not None
        ]
        for process in processes:
            await self.fabric.kill(process, graceful=True)
        await self.fabric.reap(processes)
        if self._scraper is not None:
            self._scraper.close()
        if self._control is not None:
            self._control.close()
        self.introducer.close()
        if not self.config.state_dir and self._state_dir is not None:
            shutil.rmtree(self._state_dir, ignore_errors=True)

    # ------------------------------------------------------------------
    # Node lifecycle
    # ------------------------------------------------------------------

    def _lifecycle(self, handle: _NodeHandle, step, *args) -> None:
        """Queue ``step(handle, *args)`` behind the node's earlier steps.

        Requests come from timers and churn models, which cannot await a
        fabric whose spawn and kill take (virtual) time: commanded state
        flips at the request, the fabric work runs here in request order,
        so a respawn never overtakes the kill before it.
        """
        previous = handle.task

        async def chain() -> None:
            if previous is not None:
                await previous
            await step(handle, *args)

        handle.task = asyncio.get_running_loop().create_task(chain())

    async def _up(self, handle: _NodeHandle) -> None:
        process, fresh = handle.process, handle.process is None
        if not fresh and not self.fabric.exited(process):
            # A leaver still draining must not outlive its successor.
            await self.fabric.kill(process, graceful=False)
        # A respawn boots with the *current* fault plan: `avmon live chaos
        # --loss` may have replaced the one this spec was created with.
        handle.spec.fault = "" if self._hub_faults else self._fault_json
        handle.process = await self.fabric.spawn(handle.spec)
        handle.up_since = self.fabric.monotonic()
        if fresh:
            handle.first_spawn = self.fabric.clock() - self.introducer.epoch
            self.journal.emit("live.node_spawned", node=handle.node)

    async def _down(
        self, handle: _NodeHandle, graceful: bool, forget: bool = False
    ) -> None:
        if handle.up_since is not None:
            handle.last_life_seconds = (
                self.fabric.monotonic() - handle.up_since
            )
            handle.up_since = None
        if handle.process is not None:
            await self.fabric.kill(handle.process, graceful=graceful)
        if forget:
            # Death is final: the paper grants persistent storage to
            # rejoining nodes only, so a dead node's store goes with it.
            self.fabric.states.pop(handle.spec.state_file, None)

    def _take_down(
        self, handle: _NodeHandle, *, graceful: bool, forget: bool = False
    ) -> None:
        handle.alive = False
        self.introducer.drop(handle.node)
        self._lifecycle(handle, self._down, graceful, forget)

    def _new_handle(self) -> _NodeHandle:
        """Mint the next node; the caller runs or queues its first _up."""
        node = self._next_id
        self._next_id += 1
        spec = self.config.node_spec(
            node,
            self.introducer.address,
            epoch=self.introducer.epoch,
            state_file=str(self._state_dir / f"node-{node}.json"),
            host=self.fabric.host,
            introducers=self.introducer.addresses,
        )
        handle = self._handles[node] = _NodeHandle(
            node=node, spec=spec, alive=True
        )
        return handle

    def life_seconds(self, node: NodeId) -> float:
        """Seconds of the node's *current* process life (or its last one).

        The right denominator for counter-derived rates: a respawned
        process restarts its counters at zero (only CV/PS/TS and ping
        records persist), so dividing by cumulative uptime would
        understate every crash victim's rates.
        """
        handle = self._handles[node]
        if handle.up_since is not None:
            return self.fabric.monotonic() - handle.up_since
        return handle.last_life_seconds

    # ------------------------------------------------------------------
    # ChurnDriver interface (what registered churn components call)
    # ------------------------------------------------------------------

    def request_leave(self, node: NodeId) -> None:
        handle = self._handles.get(node)
        if handle is None or not handle.alive or not self._running:
            return
        self.journal.emit("live.node_leave", node=node)
        self._take_down(handle, graceful=True)
        if self._model is not None:
            self._model.on_node_down(node)

    def request_rejoin(self, node: NodeId) -> None:
        handle = self._handles.get(node)
        if handle is None or handle.dead or handle.alive or not self._running:
            return
        handle.alive = True
        self._lifecycle(handle, self._up)
        self.journal.emit("live.node_respawned", node=node)
        if self._model is not None:
            self._model.on_node_up(node)

    def request_birth(self) -> NodeId:
        if not self._running:
            return -1
        handle = self._new_handle()
        self._lifecycle(handle, self._up)
        # Mirror the simulator's Cluster.request_birth: the model must hear
        # about the newborn or it would never schedule its next transition.
        if self._model is not None:
            self._model.on_node_up(handle.node)
        return handle.node

    def request_death(self, node: NodeId) -> None:
        handle = self._handles.get(node)
        if handle is None or handle.dead:
            return
        self.journal.emit("live.node_death", node=node)
        self._take_down(handle, graceful=False, forget=True)
        handle.dead = True
        # Death is permanent: stop re-broadcasting fault plans at it.
        self._known_addresses.pop(node, None)
        if self._model is not None:
            self._model.on_node_death(node)

    def random_alive(self) -> Optional[NodeId]:
        alive = [h.node for h in self._handles.values() if h.alive]
        if not alive:
            return None
        return alive[self.rng.randrange(len(alive))]

    def is_alive(self, node: NodeId) -> bool:
        handle = self._handles.get(node)
        return handle is not None and handle.alive

    def is_dead(self, node: NodeId) -> bool:
        handle = self._handles.get(node)
        return handle is not None and handle.dead

    # ------------------------------------------------------------------
    # Chaos
    # ------------------------------------------------------------------

    def _inject_crash(self, downtime: Optional[float] = None) -> Optional[NodeId]:
        """Hard-kill a random alive node; respawn it after *downtime*."""
        if not self._running:
            return None
        victim = self.random_alive()
        if victim is None:
            return None
        handle = self._handles[victim]
        self._take_down(handle, graceful=False)
        self._crash_victims.append(victim)
        wait = self.config.crash_downtime if downtime is None else downtime
        self.journal.emit("live.node_crashed", node=victim, downtime_s=wait)
        # Deliberately NOT telling the churn model: its on_node_down would
        # schedule a competing rejoin timer and the earlier of the two
        # would win, silently overriding the requested crash downtime.
        # The rejoin notifies on_node_up, which resumes the model's cycle.
        self.sim.schedule(wait, self.request_rejoin, victim)
        return victim

    # ------------------------------------------------------------------
    # Scraping
    # ------------------------------------------------------------------

    async def scrape(
        self, timeout: float = 1.0, *, attempts: int = 3
    ) -> Dict[NodeId, StatusReply]:
        """One status sweep of every currently-registered node.

        Delegates to :class:`StatusProber`: concurrent per-node retry
        schedules, so one partitioned or dead node never stalls the other
        nodes' results and a lost probe datagram is retried rather than
        blanking the sample.
        """
        return await self._prober.probe(
            self._scraper,
            self.introducer.alive_entries(),
            timeout=timeout,
            attempts=attempts,
        )

    # ------------------------------------------------------------------
    # Runtime fault injection
    # ------------------------------------------------------------------

    def push_fault_plan(self, plan_json: str, *, merge: bool = False) -> int:
        """Replace (or update) the overlay-wide fault plan.

        Applied at the fabric's hub when it has one; otherwise broadcast
        as a :class:`FaultUpdate` to every known node and remembered so
        respawned processes boot with it.  With
        *merge*, *plan_json* is a sparse dict of plan fields laid over
        the current plan — pushing a partition onto a ``--fault WAN``
        overlay keeps the WAN loss/latency.  A malformed plan is
        rejected (returns -1) without touching state; returns the number
        of nodes the update was sent to.
        """
        try:
            if merge:
                base = (
                    FaultPlan.from_json(self._fault_json).to_dict()
                    if self._fault_json
                    else FaultPlan().to_dict()
                )
                overrides = json.loads(plan_json) if plan_json else {}
                if not isinstance(overrides, dict):
                    return -1
                base.update(overrides)
                plan = FaultPlan.from_dict(base)
                # Collapse to "" only for a fully-default plan: is_null()
                # ignores the seed (deliberately, for cache-key
                # compatibility), but a pushed --fault-seed must survive
                # here or later merges would re-base from seed 0.
                plan_json = "" if plan == FaultPlan() else plan.to_json()
            elif plan_json:
                FaultPlan.from_json(plan_json)
        except (ValueError, TypeError):
            return -1
        self._fault_json = plan_json
        self._hub_faults = self.fabric.apply_fault_plan(plan_json)
        self._fault_pushed = True
        sent = self._broadcast_fault_plan()
        self.journal.emit(
            "live.fault_plan_pushed", nodes=sent, merge=merge
        )
        return sent

    def _fault_targets(self) -> Dict[NodeId, Address]:
        """Every node a plan push should reach.

        The live directory, topped up with the last known address of
        every node that ever registered: a plan that severs
        node->introducer traffic (loss 1.0, an introducer partition)
        empties ``alive_entries()`` within one TTL, and the subsequent
        *heal* must still reach those nodes or the overlay stays faulted
        forever.  Permanently-dead nodes are dropped (``request_death``
        prunes them; re-registrations refresh stale ports), so the map is
        bounded by the overlay's living membership.
        """
        for node, host, port in self.introducer.alive_entries():
            self._known_addresses[node] = (host, port)
        return dict(self._known_addresses)

    def _broadcast_fault_plan(self) -> int:
        targets = self._fault_targets()
        if not self._hub_faults:
            update = FaultUpdate(plan=self._fault_json)
            for address in targets.values():
                self._scraper.send_to(address, update)
        return len(targets)

    def _rebroadcast_fault_plan(self) -> None:
        """Re-send the current plan ahead of each scrape sample.

        A push is one unacked datagram per node, and under the very loss
        regimes plans configure, a node can miss it (or drop off the
        directory past the TTL and re-register later with the stale
        plan).  Nodes treat a repeat of their current plan as a no-op, so
        this periodic re-send converges stragglers without resetting
        anyone's decision streams.
        """
        if self._fault_pushed:  # boot-time plans travel in the spec
            self._broadcast_fault_plan()

    # ------------------------------------------------------------------
    # Operator control plane (avmon live status/chaos/down)
    # ------------------------------------------------------------------

    @property
    def control_address(self) -> Optional[Address]:
        return self._control.local_address if self._control is not None else None

    def _on_control(self, message, addr: Address) -> None:
        if isinstance(message, OverlayStatusRequest):
            discovered, expected, _, _ = audit_pairs(
                self.condition, self._last_statuses
            )
            self._control.send_to(
                addr,
                OverlayStatusReply(
                    probe=message.probe,
                    nodes=len(self._handles),
                    alive=self.introducer.alive_count(),
                    elapsed=self.sim.now if self.sim is not None else 0.0,
                    discovered_pairs=discovered,
                    expected_pairs=expected,
                    crashes=len(self._crash_victims),
                ),
            )
        elif isinstance(message, ChaosRequest):
            victims = []
            # Cap at the overlay size and stop when nobody is left alive:
            # the control port is an unauthenticated UDP socket, so a huge
            # kill count must not pin the supervisor's event loop.
            budget = min(max(0, message.kill), len(self._handles))
            for _ in range(budget):
                victim = self._inject_crash(downtime=message.downtime)
                if victim is None:
                    break
                victims.append(victim)
            killed: List[str] = []
            for _ in range(max(0, message.kill_introducers)):
                name = self.introducer.kill_primary()
                if name is None:  # never kill the last surviving replica
                    break
                killed.append(name)
            self._control.send_to(
                addr,
                ChaosReply(
                    victims=tuple(victims),
                    introducers_killed=tuple(killed),
                ),
            )
        elif isinstance(message, OverlayInfoRequest):
            self._control.send_to(
                addr,
                OverlayInfoReply(
                    probe=message.probe,
                    nodes=self.config.nodes,
                    k=self.config.resolved_k(),
                    cvs=self.config.resolved_cvs(),
                    hash_algorithm=self.config.hash_algorithm,
                    introducer_host=self.introducer.address[0],
                    introducer_port=self.introducer.address[1],
                    epoch=self.introducer.epoch,
                ),
            )
        elif isinstance(message, ServeStatusRequest):
            # Only answered when a serving front end is attached: the
            # client's timeout is how "no serving surface" reads.
            if self._serve_service is not None:
                self._control.send_to(
                    addr,
                    self._serve_service.serve_status_reply(message.probe),
                )
        elif isinstance(message, FaultRequest):
            applied = self.push_fault_plan(
                message.plan, merge=message.merge
            )
            self._control.send_to(
                addr, FaultReply(probe=message.probe, applied=applied)
            )
        elif isinstance(message, DownRequest):
            self._control.send_to(addr, DownAck(probe=message.probe))
            self._stop_early.set()


def run_live(
    config: LiveConfig,
    *,
    store: Optional[SummaryStore] = None,
    journal=None,
) -> LiveReport:
    """Synchronous front door: deploy, run, summarise, tear down.

    SIGTERM ends the run as ``avmon live down`` does: the node processes
    run in their own sessions, so only the teardown stops them.
    """
    supervisor = LiveSupervisor(config, store=store, journal=journal)

    async def main() -> LiveReport:
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, supervisor._stop_early.set
        )
        return await supervisor.run()

    return asyncio.run(main())


async def _control_call(address: Address, request, timeout: float):
    loop = asyncio.get_running_loop()
    reply = loop.create_future()

    def handler(message, _addr) -> None:
        if not reply.done():
            reply.set_result(message)

    # Bind the wildcard address, not loopback: `--host <remote>` must be
    # able to reach a supervisor on another machine.
    transport = await UdpTransport.create(handler, host="0.0.0.0", port=0)
    try:
        transport.send_to(address, request)
        return await wait_for(reply, timeout)
    finally:
        transport.close()


def control_call(address: Address, request, timeout: float = 2.0):
    """Send one operator request to a running supervisor, await the reply.

    The client behind ``avmon live status|chaos|down``.  Raises
    ``TimeoutError`` when nothing answers at *address* (no overlay up, or a
    wrong port).
    """
    return asyncio.run(_control_call(address, request, timeout))
