"""Command-line interface: list, run, sweep — and deploy — the experiments.

Examples::

    avmon list                        # experiments
    avmon list --json                 # experiments + registered components
    avmon run fig3                    # bench scale (default)
    avmon run fig19 --scale paper     # full paper-scale replication
    avmon run all --scale test --jobs 4   # every artifact, N-sweeps in parallel
    avmon sweep --model SYNTH --n 100,200,400 --seeds 3 --jobs 4 --json
    avmon sweep --n 100,200 --seeds 3 --cache-dir ~/.avmon-cache   # resumable
    avmon live up --nodes 20 --duration 30    # a real overlay over UDP
    avmon live up --nodes 20 --duration 30 --crash-after 12   # + chaos
    avmon live up --nodes 20 --duration 60 --serve 8080  # + HTTP query API
    avmon live status                 # probe a running overlay
    avmon live query 3 --l 2          # one-shot verified availability query
    avmon live chaos --kill 2         # crash two random nodes
    avmon live down                   # tear a running overlay down
    avmon serve --port 8080           # attach an HTTP front end to a
                                      # running overlay's control port
    avmon sweep --n 100,200 --backend fleet --jobs 4   # killable workers
    avmon store serve --dir ~/.avmon-cache --port 7780  # shared cache daemon
    avmon store stat http://127.0.0.1:7780
    avmon fleet worker --attach http://127.0.0.1:7780   # lease cells remotely
    avmon sweep --n 100,200 --backend remote \
        --cache-dir http://127.0.0.1:7780   # drive the attached workers
    avmon cache ls                    # inspect the summary store
    avmon cache stat --cache-dir http://127.0.0.1:7780   # works remotely too
    avmon cache clear

(`avmon` is `python -m repro.cli`.)  ``sweep`` output is deterministic:
the aggregated JSON of a ``--jobs 4`` run is byte-identical to the same
sweep at ``--jobs 1`` — and to the same sweep on any ``--backend``.

``--cache-dir SPEC`` (or the ``AVMON_CACHE_DIR`` environment variable)
persists every simulation summary as a content-addressed JSON object.
SPEC is a directory, or the ``http://host:port`` of an ``avmon store
serve`` daemon — the shared-store case, where every worker process (and
every machine) resolves and persists cells against one cache.  Runs and
sweeps consult the store before simulating, so a killed invocation re-run
with the same arguments resumes with zero recomputation of completed
cells.  The resume tally is printed to stderr as ``cache: hits=H
computed=C``.

``--backend NAME`` selects the execution strategy for sweep cells:
``serial`` (in-process), ``pool`` (a local multiprocessing pool of
``--jobs`` workers), ``remote`` (cells leased over HTTP by ``avmon fleet
worker`` processes on any host, coordinated through the shared store
daemon — requires ``--cache-dir http://...``), or ``fleet`` (the local
launcher of that same lease protocol: it spawns the workers itself
against an in-process daemon, and SIGKILLing any of them mid-sweep costs
only its in-flight cell).
``--backend-param KEY=VALUE`` forwards extra constructor parameters,
e.g. ``--backend-param max_attempts=5``.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import sys
import time
from typing import List, Optional, Union, get_args, get_origin, get_type_hints

from .api import Scenario, sweep
from .experiments.backends import ExecutionBackend, resolve_backend
from .experiments.cache import SimulationCache
from .experiments.orchestrator import SweepError
from .experiments.figures import EXPERIMENTS, run_experiment
from .experiments.scenarios import SCALES, n_values
from .experiments.store import SummaryStore
from .experiments.store_backends import is_url_spec
from .metrics import stats
from .registry import REGISTRY, UnknownComponentError

__all__ = ["main", "build_parser"]


def _int_list(text: str) -> List[int]:
    """Parse ``"100,200,400"`` into ``[100, 200, 400]``."""
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _add_cache_dir_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=os.environ.get("AVMON_CACHE_DIR") or None,
        metavar="SPEC",
        help="persist summaries as content-addressed JSON and resume from "
        "them; SPEC is a directory or the http://host:port of an "
        "'avmon store serve' daemon (default: the AVMON_CACHE_DIR "
        "environment variable, if set)",
    )


def _backend_param(text: str):
    """Parse one ``KEY=VALUE`` backend parameter, coercing the value."""
    key, sep, raw = text.partition("=")
    if not sep or not key.strip():
        raise argparse.ArgumentTypeError(
            f"expected KEY=VALUE, got {text!r}"
        )
    value: object = raw
    lowered = raw.strip().lower()
    if lowered in ("true", "false"):
        value = lowered == "true"
    else:
        for parse in (int, float):
            try:
                value = parse(raw)
                break
            except ValueError:
                continue
    return key.strip(), value


def _add_backend_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="execution backend for sweep cells: serial, pool, fleet, or "
        "remote (default: serial when --jobs 1, else pool); see 'avmon "
        "list --json' for the registered set",
    )
    parser.add_argument(
        "--backend-param",
        type=_backend_param,
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="extra backend constructor parameter (repeatable), e.g. "
        "--backend-param max_attempts=5",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avmon",
        description="AVMON (ICDCS 2007) reproduction: run the paper's experiments.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    list_parser = commands.add_parser(
        "list", help="list experiments (and, with --json, registered components)"
    )
    list_parser.add_argument(
        "--json", action="store_true", help="machine-readable listing"
    )
    list_parser.set_defaults(handler=_cmd_list)

    run_parser = commands.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument(
        "experiment",
        help=f"experiment id ({', '.join(EXPERIMENTS)}) or 'all'",
    )
    run_parser.add_argument(
        "--scale",
        choices=SCALES,
        default="bench",
        help="parameter scale (default: bench)",
    )
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for N-sweep experiments (default: 1)",
    )
    _add_backend_arguments(run_parser)
    _add_cache_dir_argument(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    sweep_parser = commands.add_parser(
        "sweep", help="sweep a churn model over system sizes x seeds"
    )
    sweep_parser.add_argument(
        "--model",
        default="SYNTH",
        help="churn component key (default: SYNTH); see 'avmon list --json'",
    )
    sweep_parser.add_argument(
        "--n",
        type=_int_list,
        default=None,
        metavar="N1,N2,...",
        help="system sizes (default: the scale's N sweep)",
    )
    sweep_parser.add_argument(
        "--seeds", type=int, default=1, help="seed replications per cell (default: 1)"
    )
    sweep_parser.add_argument(
        "--seed", type=int, default=1, help="base seed (default: 1)"
    )
    sweep_parser.add_argument(
        "--scale",
        choices=SCALES,
        default="bench",
        help="parameter scale supplying warmup/duration (default: bench)",
    )
    sweep_parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes (default: 1)"
    )
    sweep_parser.add_argument(
        "--json", action="store_true", help="emit the full result set as JSON"
    )
    sweep_parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="append structured JSONL lifecycle events (fleet leases, "
        "deaths, retries) to PATH; inspect with 'avmon obs'",
    )
    sweep_parser.add_argument(
        "--obs-snapshot",
        default=None,
        metavar="PATH",
        help="write the deterministic obs-counter snapshot (canonical "
        "JSON) to PATH after the sweep — byte-equal across identical "
        "seeded runs",
    )
    _add_backend_arguments(sweep_parser)
    _add_cache_dir_argument(sweep_parser)
    sweep_parser.set_defaults(handler=_cmd_sweep)

    _build_live_parser(commands)
    _build_serve_parser(commands)
    _build_store_parser(commands)
    _build_fleet_parser(commands)
    _build_cache_parser(commands)
    _build_obs_parser(commands)
    return parser


def _build_fleet_parser(commands) -> None:
    fleet_parser = commands.add_parser(
        "fleet",
        help="network-attached sweep workers (lease cells from a store "
        "daemon; pair with 'sweep --backend remote')",
    )
    fleet_commands = fleet_parser.add_subparsers(
        dest="fleet_command", required=True
    )

    worker = fleet_commands.add_parser(
        "worker",
        help="attach to a store daemon and compute leased sweep cells "
        "until interrupted (or idle past --max-idle)",
    )
    worker.add_argument(
        "--attach",
        required=True,
        metavar="URL",
        help="store daemon to lease cells from, e.g. http://host:7780",
    )
    worker.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes to run (default: 1, in this process)",
    )
    worker.add_argument(
        "--poll-interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="how often to poll for work when the board is idle "
        "(default: 0.5)",
    )
    worker.add_argument(
        "--max-idle",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit after this long with no work (default: run forever)",
    )
    worker.add_argument(
        "--auth-token",
        default=None,
        metavar="TOKEN",
        help="bearer token for a daemon started with --auth-token "
        "(default: AVMON_STORE_TOKEN)",
    )
    worker.add_argument(
        "--name",
        default=None,
        help="worker identity in leases and journals "
        "(default: worker-<host>-<pid>)",
    )
    worker.set_defaults(handler=_cmd_fleet_worker)


def _build_obs_parser(commands) -> None:
    obs_parser = commands.add_parser(
        "obs", help="inspect observability output: journals and /metrics"
    )
    obs_commands = obs_parser.add_subparsers(dest="obs_command", required=True)

    tail = obs_commands.add_parser(
        "tail", help="print the last events of a JSONL journal"
    )
    tail.add_argument("path", help="journal file (written via --journal)")
    tail.add_argument(
        "-n", "--lines", type=int, default=20, help="events to show (default: 20)"
    )
    tail.add_argument(
        "--event", default=None, help="only events whose name contains this"
    )
    tail.add_argument(
        "--json", action="store_true", help="raw JSONL instead of the human render"
    )
    tail.set_defaults(handler=_cmd_obs_tail)

    summary = obs_commands.add_parser(
        "summary", help="aggregate a journal: per-event counts and span timings"
    )
    summary.add_argument("path", help="journal file")
    summary.add_argument(
        "--json", action="store_true", help="machine-readable aggregate"
    )
    summary.set_defaults(handler=_cmd_obs_summary)

    scrape = obs_commands.add_parser(
        "scrape", help="fetch a /metrics endpoint (store daemon or serve)"
    )
    scrape.add_argument(
        "url",
        help="metrics URL, e.g. http://127.0.0.1:7780/metrics",
    )
    scrape.add_argument(
        "--format",
        choices=("json", "prometheus"),
        default="json",
        help="exposition format to request (default: json)",
    )
    scrape.add_argument(
        "--timeout", type=float, default=5.0, help="HTTP timeout seconds"
    )
    scrape.set_defaults(handler=_cmd_obs_scrape)


#: Default operator control port for ``avmon live`` (UDP, localhost).
DEFAULT_CONTROL_PORT = 7711


def _config_flags(cls):
    """``(field, flag)`` for each field of dataclass *cls* whose metadata
    carries ``help`` (the flag is ``metadata["flag"]`` or ``--field-name``)."""
    for spec in dataclasses.fields(cls):
        if "help" in spec.metadata:
            flag = "--" + spec.name.replace("_", "-")
            yield spec, spec.metadata.get("flag", flag)


def add_config_arguments(parser, cls, **defaults) -> None:
    """One option per flagged field of *cls*: its name, type (``Optional``
    unwrapped), default, help and metavar all come from the field, except
    the *defaults* given here."""
    hints = get_type_hints(cls)
    for spec, flag in _config_flags(cls):
        kind = hints[spec.name]
        if get_origin(kind) is Union:  # Optional[X] -> X
            (kind,) = [arg for arg in get_args(kind) if arg is not type(None)]
        parser.add_argument(
            flag,
            type=kind,
            default=defaults.get(spec.name, spec.default),
            help=spec.metadata["help"],
            metavar=spec.metadata.get("metavar"),
        )


def config_from_args(cls, args, **extra):
    """*cls* built from the options :func:`add_config_arguments` added,
    plus the unflagged fields in *extra*."""
    values = {
        spec.name: getattr(args, flag[2:].replace("-", "_"))
        for spec, flag in _config_flags(cls)
    }
    return cls(**values, **extra)


def _add_control_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--host", default="127.0.0.1", help="supervisor host (default: 127.0.0.1)"
    )
    parser.add_argument(
        "--control-port",
        type=int,
        default=DEFAULT_CONTROL_PORT,
        help=f"supervisor control port (default: {DEFAULT_CONTROL_PORT})",
    )


def _build_live_parser(commands) -> None:
    from .live.config import LiveConfig

    live_parser = commands.add_parser(
        "live", help="run and operate a real AVMON overlay over UDP"
    )
    live_commands = live_parser.add_subparsers(dest="live_command", required=True)

    up = live_commands.add_parser(
        "up", help="boot a localhost overlay, run it, report and tear down"
    )
    # The one default written here: `live status|query|chaos|down` and
    # `serve` find the overlay on this port, while a library or memory-fabric
    # run keeps LiveConfig's ephemeral 0.
    add_config_arguments(up, LiveConfig, control_port=DEFAULT_CONTROL_PORT)
    up.add_argument(
        "--loss",
        type=float,
        default=None,
        metavar="P",
        help="override the fault plan's per-datagram loss probability",
    )
    up.add_argument(
        "--expect-discovery",
        type=float,
        default=None,
        metavar="R",
        help="exit non-zero unless the discovery ratio reaches R (CI gate)",
    )
    up.add_argument(
        "--expect-recovery",
        type=float,
        default=None,
        metavar="R",
        help="exit non-zero unless crash-victim recovery reaches R (CI gate)",
    )
    up.add_argument("--json", action="store_true", help="emit the report as JSON")
    up.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="append structured JSONL lifecycle events (spawns, crashes, "
        "scrapes) to PATH; inspect with 'avmon obs'",
    )
    _add_cache_dir_argument(up)
    up.set_defaults(handler=_cmd_live_up)

    status = live_commands.add_parser("status", help="probe a running overlay")
    _add_control_arguments(status)
    status.add_argument("--json", action="store_true", help="JSON output")
    status.set_defaults(handler=_cmd_live_status)

    query = live_commands.add_parser(
        "query",
        help="one-shot verified availability query (§3.3) against a "
        "running overlay",
    )
    query.add_argument("target", type=int, help="node id to query")
    query.add_argument(
        "--l",
        type=int,
        default=1,
        dest="l",
        help="monitors the answer must be verified by (default: 1)",
    )
    query.add_argument(
        "--timeout",
        type=float,
        default=3.0,
        help="query deadline in seconds; a partial result is reported, "
        "not an error (default: 3.0)",
    )
    query.add_argument("--json", action="store_true", help="JSON output")
    _add_control_arguments(query)
    query.set_defaults(handler=_cmd_live_query)

    chaos = live_commands.add_parser(
        "chaos",
        help="crash random nodes and/or inject network faults into a "
        "running overlay",
    )
    _add_control_arguments(chaos)
    chaos.add_argument(
        "--kill",
        type=int,
        default=None,
        help="how many nodes to crash (default: 1, or 0 when --loss/"
        "--partition is given)",
    )
    chaos.add_argument(
        "--downtime",
        type=float,
        default=3.0,
        help="seconds before each victim restarts (default: 3.0)",
    )
    chaos.add_argument(
        "--kill-introducer",
        action="store_true",
        help="hard-stop the overlay's primary introducer replica (the "
        "quorum's failover drill; the last surviving replica is never "
        "killed)",
    )
    chaos.add_argument(
        "--loss",
        type=float,
        default=None,
        metavar="P",
        help="set the running fault plan's per-datagram loss probability "
        "(other plan components are kept)",
    )
    chaos.add_argument(
        "--partition",
        default=None,
        metavar="GROUPS",
        help="set the running fault plan's partition, e.g. '0,1,2|3,4' "
        "('' clears it; other plan components are kept)",
    )
    chaos.add_argument(
        "--heal",
        action="store_true",
        help="clear the entire fault plan (loss, latency, partitions, ...)",
    )
    chaos.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="replace the fault plan's decision-stream seed",
    )
    chaos.set_defaults(handler=_cmd_live_chaos)

    down = live_commands.add_parser("down", help="tear a running overlay down")
    _add_control_arguments(down)
    down.set_defaults(handler=_cmd_live_down)


def _build_serve_parser(commands) -> None:
    from .serve.service import ServeConfig

    serve_parser = commands.add_parser(
        "serve",
        help="attach an HTTP availability front end to a running live "
        "overlay (discovered via its control port)",
    )
    _add_control_arguments(serve_parser)
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8080,
        help="HTTP port to serve on (0 binds an ephemeral port; "
        "default: 8080)",
    )
    serve_parser.add_argument(
        "--bind",
        default="127.0.0.1",
        help="address to bind the HTTP server and query transport to "
        "(default: 127.0.0.1)",
    )
    add_config_arguments(serve_parser, ServeConfig)
    serve_parser.set_defaults(handler=_cmd_serve)


def _build_store_parser(commands) -> None:
    store_parser = commands.add_parser(
        "store",
        help="run or inspect a shared summary-store daemon (one "
        "content-addressed cache serving many sweep workers over HTTP)",
    )
    store_commands = store_parser.add_subparsers(dest="store_command", required=True)

    serve = store_commands.add_parser(
        "serve", help="serve a store directory over the HTTP object protocol"
    )
    serve.add_argument(
        "--dir",
        default=os.environ.get("AVMON_CACHE_DIR") or None,
        metavar="DIR",
        help="store directory to serve (default: AVMON_CACHE_DIR)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=7780,
        help="port to serve on (0 binds an ephemeral port; default: 7780)",
    )
    serve.add_argument(
        "--auth-token",
        default=os.environ.get("AVMON_STORE_TOKEN") or None,
        metavar="TOKEN",
        help="require 'Authorization: Bearer TOKEN' on every mutating "
        "verb (default: AVMON_STORE_TOKEN; reads stay open)",
    )
    serve.set_defaults(handler=_cmd_store_serve)

    compact = store_commands.add_parser(
        "compact",
        help="ask a store daemon to sweep stale tmp files and corrupt "
        "summary entries from its directory",
    )
    compact.add_argument(
        "url",
        nargs="?",
        default=os.environ.get("AVMON_CACHE_DIR") or None,
        help="daemon base URL, e.g. http://127.0.0.1:7780 "
        "(default: AVMON_CACHE_DIR when it is a URL)",
    )
    compact.add_argument(
        "--tmp-age",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="only remove tmp files older than this (default: 60)",
    )
    compact.add_argument(
        "--auth-token",
        default=None,
        metavar="TOKEN",
        help="bearer token for a daemon started with --auth-token "
        "(default: AVMON_STORE_TOKEN)",
    )
    compact.add_argument("--json", action="store_true", help="JSON output")
    compact.set_defaults(handler=_cmd_store_compact)

    stat = store_commands.add_parser(
        "stat", help="totals and request counters of a store daemon"
    )
    stat.add_argument(
        "url",
        nargs="?",
        default=os.environ.get("AVMON_CACHE_DIR") or None,
        help="daemon base URL, e.g. http://127.0.0.1:7780 "
        "(default: AVMON_CACHE_DIR when it is a URL)",
    )
    stat.add_argument("--json", action="store_true", help="JSON output")
    stat.set_defaults(handler=_cmd_store_stat)


def _build_cache_parser(commands) -> None:
    cache_parser = commands.add_parser(
        "cache", help="inspect or clear the disk-backed summary store"
    )
    cache_commands = cache_parser.add_subparsers(dest="cache_command", required=True)
    for name, help_text, handler in (
        ("ls", "list stored summaries", _cmd_cache_ls),
        ("stat", "store totals (entries, bytes)", _cmd_cache_stat),
        ("clear", "delete every stored summary", _cmd_cache_clear),
    ):
        sub = cache_commands.add_parser(name, help=help_text)
        _add_cache_dir_argument(sub)
        if name != "clear":
            sub.add_argument("--json", action="store_true", help="JSON output")
        sub.set_defaults(handler=handler)


class CliError(Exception):
    """A command failed: :func:`main` prints ``error: MESSAGE`` to stderr
    and exits with *code* (2 for bad arguments, 1 for runtime failures)."""

    def __init__(self, message: str, code: int = 2) -> None:
        super().__init__(message)
        self.code = code


def _store_from(args) -> Optional[SummaryStore]:
    if not args.cache_dir:
        return None
    try:
        return SummaryStore.open(args.cache_dir)
    except (OSError, ValueError) as error:
        raise CliError(
            f"cannot use cache dir {args.cache_dir!r}: {error}"
        ) from error


def _backend_from(args) -> Optional[ExecutionBackend]:
    """The --backend/--backend-param selection as an instance (or None)."""
    if getattr(args, "backend", None) is None:
        return None
    params = dict(args.backend_param or ())
    try:
        return resolve_backend(args.backend, jobs=args.jobs, **params)
    except ValueError as error:
        raise CliError(str(error)) from error
    except TypeError as error:  # a parameter the backend does not take
        raise CliError(
            f"bad --backend-param for backend {args.backend!r}: {error}"
        ) from error


def _report_store(store: Optional[SummaryStore]) -> None:
    """One grep-able stderr line per invocation: how much was resumed."""
    if store is not None:
        print(
            f"cache: dir={store.root} hits={store.hits} computed={store.writes}",
            file=sys.stderr,
        )


def _report_backend(backend: Optional[ExecutionBackend]) -> None:
    """One grep-able stderr line for backends with operational tallies."""
    if backend is not None and backend.stats_line():
        print(backend.stats_line(), file=sys.stderr)


def _print_mapping(payload: dict, args, out) -> int:
    """``--json``: the payload as sorted JSON; else one ``key: value`` line
    per item, in the payload's order."""
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
    else:
        for key, value in payload.items():
            print(f"{key}: {value}", file=out)
    return 0


def _run_one(experiment_id: str, scale: str, cache: SimulationCache, jobs: int, out) -> None:
    started = time.perf_counter()
    report = run_experiment(experiment_id, scale, cache, jobs=jobs)
    elapsed = time.perf_counter() - started
    print(f"== {experiment_id} ({scale} scale, {elapsed:.1f}s wall) ==", file=out)
    print(report, file=out)
    print(file=out)


def _cmd_list(args, out) -> int:
    if args.json:
        payload = {
            "experiments": [
                {"id": eid, "title": experiment.title}
                for eid, experiment in EXPERIMENTS.items()
            ],
            "components": {
                kind: list(names) for kind, names in REGISTRY.catalog().items()
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        return 0
    width = max(len(eid) for eid in EXPERIMENTS)
    for eid, experiment in EXPERIMENTS.items():
        print(f"{eid.ljust(width)}  {experiment.title}", file=out)
    return 0


def _cmd_run(args, out) -> int:
    store = _store_from(args)
    backend = _backend_from(args)
    cache = SimulationCache(store=store, backend=backend)
    if args.experiment == "all":
        for experiment_id in EXPERIMENTS:
            _run_one(experiment_id, args.scale, cache, args.jobs, out)
    else:
        try:
            _run_one(args.experiment, args.scale, cache, args.jobs, out)
        except UnknownComponentError as error:
            raise CliError(str(error)) from error
    _report_store(store)
    _report_backend(backend)
    return 0


def _progress_printer(stream):
    def progress(done: int, total: int, label: str, elapsed: float) -> None:
        print(f"[{done}/{total}] {label} ({elapsed:.1f}s elapsed)", file=stream)

    return progress


def _sweep_payload(results) -> dict:
    """Deterministic JSON payload: per-cell results plus per-(model, n)
    aggregates over seed replications.  Wall-clock timing is excluded so
    the output is identical whatever the job count."""
    aggregates = []
    for (model, n), group in results.group_by("model", "n").items():
        aggregates.append(
            {
                "model": model,
                "n": n,
                "replications": len(group),
                "mean_discovery_s": group.mean(
                    lambda s: s.average_discovery_time(drop_top=1)
                ),
                "mean_memory_entries": group.mean(
                    lambda s: stats.mean(s.memory_values(control_only=True))
                ),
                "mean_computations_per_s": group.mean(
                    lambda s: stats.mean(s.computation_rates(control_only=True))
                ),
            }
        )
    payload = results.to_dict()
    payload["aggregates"] = aggregates
    return payload


def _cmd_sweep(args, out) -> int:
    ns = args.n if args.n is not None else n_values(args.scale)
    store = _store_from(args)
    backend = _backend_from(args)
    registry = journal = None
    if args.journal or args.obs_snapshot:
        from .obs import Journal, MetricsRegistry

        registry = MetricsRegistry()
        journal = Journal(args.journal) if args.journal else Journal()
        if backend is not None:
            backend.attach_obs(registry, journal)
        if store is not None:
            registry.gauge("sweep.cache.hits", fn=lambda s=store: s.hits)
            registry.gauge("sweep.cache.computed", fn=lambda s=store: s.writes)
        journal.emit(
            "sweep.start",
            model=args.model,
            scale=args.scale,
            n=list(ns),
            seeds=args.seeds,
            jobs=args.jobs,
        )
    try:
        base = Scenario(model=args.model, scale=args.scale, seed=args.seed)
        results = sweep(
            base,
            {"n": ns},
            seeds=args.seeds,
            jobs=args.jobs,
            progress=_progress_printer(sys.stderr),
            store=store,
            backend=backend,
        )
    except ValueError as error:  # includes UnknownComponentError
        raise CliError(str(error)) from error
    except SweepError as error:
        raise CliError(str(error), 1) from error
    finally:
        if journal is not None:
            journal.emit("sweep.end", cells=len(ns) * args.seeds)
            journal.close()
    if args.obs_snapshot:
        try:
            with open(args.obs_snapshot, "w", encoding="utf-8") as fh:
                fh.write(registry.deterministic_json() + "\n")
        except OSError as error:
            raise CliError(f"cannot write obs snapshot: {error}") from error
    _report_store(store)
    _report_backend(backend)
    if args.json:
        print(json.dumps(_sweep_payload(results), indent=2, sort_keys=True), file=out)
        return 0
    print(
        f"sweep: model={args.model} scale={args.scale} "
        f"n={','.join(str(n) for n in ns)} seeds={args.seeds} jobs={args.jobs}",
        file=out,
    )
    header = f"{'model':<10} {'N':>6} {'seed':>5} {'discovery(s)':>13} {'memory':>8} {'comps/s':>9}"
    print(header, file=out)
    for entry in results:
        summary = entry.summary
        print(
            f"{summary.model:<10} {summary.n:>6} {summary.seed:>5} "
            f"{summary.average_discovery_time(drop_top=1):>13.2f} "
            f"{stats.mean(summary.memory_values(control_only=True)):>8.1f} "
            f"{stats.mean(summary.computation_rates(control_only=True)):>9.2f}",
            file=out,
        )
    return 0


def _no_overlay(address) -> CliError:
    return CliError(
        f"no overlay answered at {address[0]}:{address[1]} "
        f"(is `avmon live up` running with this control port?)",
        1,
    )


def _overlay_command(handler):
    """Wrap a ``live`` operator command: it gets the control address, and a
    control port nobody answers on exits 1 with one message."""

    def run(args, out) -> int:
        address = (args.host, args.control_port)
        try:
            return handler(args, out, address)
        except (TimeoutError, asyncio.TimeoutError, OSError):
            raise _no_overlay(address) from None

    return run


def _reply_fields(reply) -> dict:
    """A control-plane reply's fields in declaration order, minus its probe id."""
    fields = dataclasses.asdict(reply)
    del fields["probe"]
    return fields


@_overlay_command
def _cmd_live_status(args, out, address) -> int:
    from .live.control import OverlayStatusRequest, ServeStatusRequest
    from .live.supervisor import control_call

    payload = _reply_fields(control_call(address, OverlayStatusRequest()))
    try:
        # Answered only when a serving front end is attached; the short
        # timeout is the "no serving surface" signal.
        serve = control_call(address, ServeStatusRequest(), timeout=0.5)
        payload["serve"] = _reply_fields(serve)
    except (TimeoutError, asyncio.TimeoutError):
        pass
    return _print_mapping(payload, args, out)


@_overlay_command
def _cmd_live_chaos(args, out, address) -> int:
    from .live.control import ChaosRequest, FaultRequest
    from .live.faults import FaultPlan, parse_partition_groups
    from .live.supervisor import control_call

    overriding = (
        args.loss is not None
        or args.partition is not None
        or args.fault_seed is not None
    )
    injecting = args.heal or overriding
    if args.heal and overriding:
        raise CliError(
            "--heal clears the whole plan; it cannot be "
            "combined with --loss/--partition/--fault-seed"
        )
    if injecting:
        # Build a *sparse* update: only the fields the operator named,
        # merged server-side onto the running plan — a partition pushed
        # onto a `--fault WAN` overlay keeps the WAN loss/latency.
        # --heal replaces with a clean slate.
        overrides = {}
        if args.loss is not None:
            overrides["loss"] = args.loss
        if args.fault_seed is not None:
            overrides["seed"] = args.fault_seed
        if args.partition is not None:
            if args.partition:
                try:
                    groups = parse_partition_groups(args.partition)
                except ValueError as error:
                    raise CliError(str(error)) from error
                if "supervisor" in {member for group in groups for member in group}:
                    print(
                        "warning: the 'supervisor' label only takes "
                        "effect on the in-memory fabric; live UDP "
                        "nodes cannot identify the supervisor's "
                        "scrape endpoint",
                        file=sys.stderr,
                    )
                overrides["partitions"] = [
                    {"groups": [list(group) for group in groups]}
                ]
            else:
                overrides["partitions"] = []
        try:
            FaultPlan.from_dict(overrides)  # validate before pushing
        except ValueError as error:
            raise CliError(str(error)) from error
        request = (
            FaultRequest(plan="")
            if args.heal
            else FaultRequest(plan=json.dumps(overrides), merge=True)
        )
        reply = control_call(address, request)
        if reply.applied < 0:
            raise CliError("supervisor rejected the fault plan", 1)
        action = "healed" if args.heal else "updated"
        print(f"fault plan {action}: pushed to {reply.applied} nodes", file=out)
    kill_introducers = 1 if args.kill_introducer else 0
    kill = args.kill if args.kill is not None else (
        0 if injecting or kill_introducers else 1
    )
    if kill > 0 or kill_introducers > 0:
        reply = control_call(
            address,
            ChaosRequest(
                kill=kill, downtime=args.downtime, kill_introducers=kill_introducers
            ),
        )
        if kill > 0:
            victims = ",".join(str(v) for v in reply.victims) or "(none)"
            print(f"crashed: {victims}", file=out)
        if kill_introducers > 0:
            killed = ",".join(reply.introducers_killed)
            if killed:
                print(f"introducer killed: {killed}", file=out)
            else:
                print(
                    "introducer not killed (no surviving quorum to fail over to)",
                    file=out,
                )
    return 0


@_overlay_command
def _cmd_live_down(args, out, address) -> int:
    from .live.control import DownRequest
    from .live.supervisor import control_call

    control_call(address, DownRequest())
    print("overlay teardown initiated", file=out)
    return 0


def _cmd_live_up(args, out) -> int:
    from .live.supervisor import LiveConfig, run_live
    from .obs import Journal, journal_from_env

    store = _store_from(args)
    fault_params = {}
    if args.loss is not None:
        fault_params["loss"] = args.loss
    try:
        REGISTRY.resolve("churn", args.churn)  # fail fast, list alternatives
        REGISTRY.resolve("fault", args.fault)
        config = config_from_args(LiveConfig, args, fault_params=fault_params)
        config.resolved_fault_plan()  # validate params (e.g. --loss 1.5) now
    except ValueError as error:  # includes UnknownComponentError
        raise CliError(str(error)) from error
    fault_note = "" if config.fault.upper() == "NONE" and not fault_params else (
        f", fault={config.fault}"
        + (f" loss={fault_params['loss']}" if "loss" in fault_params else "")
    )
    print(
        f"live: booting {config.nodes} nodes for {config.duration:.0f}s "
        f"(control port {config.control_port}{fault_note})",
        file=sys.stderr,
    )
    journal = Journal(args.journal) if args.journal else journal_from_env()
    try:
        report = run_live(config, store=store, journal=journal)
    except RuntimeError as error:
        raise CliError(str(error), 1) from error
    finally:
        journal.close()
    _report_store(store)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True), file=out)
    else:
        recovery = (
            f"{report.victim_recovery:.3f}"
            if report.victim_recovery is not None
            else "n/a"
        )
        print(
            f"live: nodes={report.config.nodes} duration={report.config.duration:.0f}s "
            f"alive={report.final_alive}",
            file=out,
        )
        print(
            f"discovery: {report.discovered_pairs}/{report.expected_pairs} "
            f"optimal monitor relationships ({report.discovery_ratio:.1%}), "
            f"mean first-monitor delay "
            f"{report.summary.average_discovery_time():.2f}s",
            file=out,
        )
        print(
            f"chaos: crashes={report.crashes} victim_recovery={recovery}",
            file=out,
        )
        print(f"audit: consistency violations={report.violations}", file=out)
        if report.store_path:
            print(f"summary persisted: {report.store_path}", file=out)
    failures = []
    if (
        args.expect_discovery is not None
        and report.discovery_ratio < args.expect_discovery
    ):
        failures.append(
            f"discovery ratio {report.discovery_ratio:.3f} "
            f"< expected {args.expect_discovery}"
        )
    if args.expect_recovery is not None and (
        report.victim_recovery is None
        or report.victim_recovery < args.expect_recovery
    ):
        if report.victim_recovery is not None:
            observed = f"victim recovery {report.victim_recovery:.3f}"
        elif report.crashes == 0:
            observed = "no crash was injected"
        else:
            observed = (
                "victim recovery unmeasurable (crash victim absent from the "
                "final scrape — still down at teardown?)"
            )
        failures.append(f"{observed} < expected {args.expect_recovery}")
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _observer_backend(info, *, host: str, query_timeout: float):
    """An :class:`~repro.serve.backend.OverlayBackend` for the overlay an
    :class:`~repro.live.control.OverlayInfoReply` describes."""
    from .core.condition import ConsistencyCondition
    from .serve.backend import OverlayBackend

    condition = ConsistencyCondition(info.k, info.nodes, info.hash_algorithm)
    return OverlayBackend(
        condition,
        (info.introducer_host, info.introducer_port),
        host=host,
        query_timeout=query_timeout,
    )


@_overlay_command
def _cmd_live_query(args, out, address) -> int:
    from .live.control import OverlayInfoRequest
    from .live.supervisor import control_call
    from .serve.service import result_json

    info = control_call(address, OverlayInfoRequest())
    # The query transport binds loopback for a local overlay; for a remote
    # control host it must accept replies on any interface.
    bind = "127.0.0.1" if args.host in ("127.0.0.1", "localhost") else "0.0.0.0"

    async def run_query():
        backend = _observer_backend(
            info, host=bind, query_timeout=args.timeout
        )
        await backend.start()
        try:
            return await backend.query(args.target, l=args.l)
        finally:
            await backend.close()

    result = asyncio.run(run_query())
    payload = result_json(result)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
    else:
        flags = []
        if result.timed_out:
            flags.append("timed out")
        if not result.policy_satisfied:
            flags.append(f"policy unsatisfied (wanted l={args.l})")
        note = f"  [{', '.join(flags)}]" if flags else ""
        print(
            f"node {result.subject}: availability "
            f"{result.availability:.4f}{note}",
            file=out,
        )
        print(
            f"monitors: verified={sorted(result.verified_monitors)} "
            f"rejected={sorted(result.rejected_monitors)} "
            f"answered={result.monitors_answered}/{result.monitors_queried}",
            file=out,
        )
        for monitor, value in sorted(result.reports.items()):
            print(f"  monitor {monitor}: {value:.4f}", file=out)
    return 0 if result.policy_satisfied else 1


def _cmd_serve(args, out) -> int:
    from .live.control import OverlayInfoRequest
    from .live.supervisor import control_call
    from .serve.http import serve_http
    from .serve.service import AvailabilityService, ServeConfig

    address = (args.host, args.control_port)
    try:
        info = control_call(address, OverlayInfoRequest())
    except (TimeoutError, asyncio.TimeoutError, OSError):
        raise _no_overlay(address) from None
    config = config_from_args(ServeConfig, args)

    async def serve_forever() -> None:
        backend = _observer_backend(
            info, host=args.bind, query_timeout=config.query_timeout
        )
        await backend.start()
        service = AvailabilityService(backend, config)
        server = await serve_http(service, args.bind, args.port)
        port = server.sockets[0].getsockname()[1]
        print(
            f"serving availability for the {info.nodes}-node overlay on "
            f"http://{args.bind}:{port} (Ctrl-C to stop)",
            file=sys.stderr,
        )
        try:
            await server.serve_forever()
        finally:
            server.close()
            await server.wait_closed()
            await backend.close()

    asyncio.run(serve_forever())
    return 0


def _cmd_store_serve(args, out) -> int:
    if not args.dir:
        raise CliError("no store directory (pass --dir or set AVMON_CACHE_DIR)")
    if is_url_spec(args.dir):
        raise CliError("'store serve' needs a directory to serve, not a URL")
    from .experiments.store_server import run_store_server

    try:
        return run_store_server(
            args.dir, host=args.host, port=args.port, auth_token=args.auth_token
        )
    except OSError as error:
        raise CliError(f"cannot serve store: {error}", 1) from error


def _ask_store_daemon(args, verb: str, auth_token=None, **params):
    """``SharedStoreBackend.<verb>(**params)`` against the daemon at
    ``args.url``; a daemon that does not answer exits 1."""
    if not args.url or not is_url_spec(args.url):
        raise CliError(f"'store {verb}' needs a daemon URL (http://host:port)")
    from .experiments.store_backends import SharedStoreBackend

    backend = SharedStoreBackend(args.url, auth_token=auth_token)
    try:
        return getattr(backend, verb)(**params)
    except OSError as error:
        raise CliError(f"no store daemon at {args.url}: {error}", 1) from error
    finally:
        backend.close()


def _cmd_store_compact(args, out) -> int:
    result = _ask_store_daemon(
        args, "compact", auth_token=args.auth_token, tmp_age=args.tmp_age
    )
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True), file=out)
    else:
        print(
            f"compacted: removed_tmp={result.get('removed_tmp', 0)} "
            f"removed_corrupt={result.get('removed_corrupt', 0)}",
            file=out,
        )
    return 0


def _cmd_store_stat(args, out) -> int:
    payload = _ask_store_daemon(args, "stat")
    return _print_mapping(dict(sorted(payload.items())), args, out)


def _cmd_fleet_worker(args, out) -> int:
    if not is_url_spec(args.attach):
        raise CliError("--attach needs a store daemon URL (http://host:port)")
    from .experiments.backends import run_fleet_worker

    try:
        return run_fleet_worker(
            args.attach,
            workers=args.workers,
            poll_interval=args.poll_interval,
            max_idle=args.max_idle,
            auth_token=args.auth_token,
            name=args.name,
        )
    except ValueError as error:
        raise CliError(str(error)) from error


def _open_cache(args) -> SummaryStore:
    """The store ``avmon cache`` inspects; never creates a directory."""
    if not args.cache_dir:
        raise CliError(
            "no cache directory (pass --cache-dir or set AVMON_CACHE_DIR)"
        )
    if not is_url_spec(args.cache_dir) and not os.path.isdir(args.cache_dir):
        # Inspection must not create directories as a side effect (a typo'd
        # path would silently become a fresh empty store).
        raise CliError(f"no such cache dir: {args.cache_dir}")
    try:
        return SummaryStore.open(args.cache_dir)
    except (OSError, ValueError) as error:
        raise CliError(
            f"cannot open cache dir {args.cache_dir!r}: {error}"
        ) from error


def _cache_entries(store: SummaryStore) -> List[dict]:
    """One row per stored object, corrupt ones flagged ``"corrupt": True``.

    Listing goes through the StoreBackend protocol, so the same
    subcommands inspect a local directory or a remote store daemon."""
    entries = []
    try:
        backend_entries = store.entries()
    except OSError as error:
        raise CliError(f"cannot list cache: {error}", 1) from error
    for entry in backend_entries:
        key = entry.name.rsplit(".", 1)[0]
        summary = store.read_entry(entry.name)
        if summary is None:
            try:
                if not store.backend.exists(entry.name):
                    continue  # vanished under us (a concurrent `cache clear`)
            except OSError:
                continue
            entries.append({"key": key, "bytes": entry.size, "corrupt": True})
        else:
            entries.append(
                {
                    "key": key,
                    "bytes": entry.size,
                    "model": summary.model,
                    "n": summary.n,
                    "seed": summary.seed,
                    "label": summary.label,
                }
            )
    return entries


def _cmd_cache_clear(args, out) -> int:
    store = _open_cache(args)
    try:
        removed = store.clear()
    except OSError as error:
        raise CliError(f"cache clear failed: {error}", 1) from error
    print(f"removed {removed} entries from {store.root}", file=out)
    return 0


def _cmd_cache_stat(args, out) -> int:
    store = _open_cache(args)
    entries = _cache_entries(store)
    payload = {
        "dir": str(store.root),
        "entries": len(entries),
        "corrupt": sum(1 for entry in entries if entry.get("corrupt")),
        "total_bytes": sum(entry["bytes"] for entry in entries),
    }
    return _print_mapping(payload, args, out)


def _cmd_cache_ls(args, out) -> int:
    store = _open_cache(args)
    entries = _cache_entries(store)
    if args.json:
        print(json.dumps({"entries": entries}, indent=2, sort_keys=True), file=out)
        return 0
    if not entries:
        print(f"(empty store at {store.root})", file=out)
        return 0
    header = f"{'key':<32} {'model':<10} {'n':>6} {'seed':>5} {'bytes':>9}  label"
    print(header, file=out)
    for entry in entries:
        model = entry.get("model", "(corrupt)")
        print(
            f"{entry['key']:<32} {model:<10} {entry.get('n', 0):>6} "
            f"{entry.get('seed', 0):>5} {entry['bytes']:>9}  "
            f"{entry.get('label', '')}",
            file=out,
        )
    return 0


def _cmd_obs_scrape(args, out) -> int:
    import urllib.error
    import urllib.request

    url = args.url
    if args.format == "prometheus":
        sep = "&" if "?" in url else "?"
        url = f"{url}{sep}format=prometheus"
    try:
        with urllib.request.urlopen(url, timeout=args.timeout) as response:
            body = response.read().decode("utf-8")
    except (urllib.error.URLError, OSError, ValueError) as error:
        raise CliError(f"cannot scrape {args.url}: {error}", 1) from error
    if args.format == "json":
        try:  # re-render canonically so scrapes diff cleanly
            body = json.dumps(json.loads(body), indent=2, sort_keys=True)
        except ValueError:
            pass
    print(body.rstrip("\n"), file=out)
    return 0


def _journal_events(args) -> List[dict]:
    from .obs import read_events

    try:
        return read_events(args.path)
    except OSError as error:
        raise CliError(f"cannot read journal: {error}", 1) from error


def _cmd_obs_tail(args, out) -> int:
    from .obs import render_event

    events = _journal_events(args)
    if args.event:
        events = [e for e in events if args.event in e.get("event", "")]
    if args.lines > 0:
        events = events[-args.lines:]
    for record in events:
        if args.json:
            print(json.dumps(record, sort_keys=True), file=out)
        else:
            print(render_event(record), file=out)
    return 0


def _cmd_obs_summary(args, out) -> int:
    from .obs import summarize_events

    summary = summarize_events(_journal_events(args))
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True), file=out)
        return 0
    print(f"events: {summary['events']}", file=out)
    for event, count in summary["by_event"].items():
        print(f"  {event:<36} {count:>8}", file=out)
    if summary["spans"]:
        print("spans:", file=out)
        for base, agg in summary["spans"].items():
            print(
                f"  {base:<36} count={agg['count']} "
                f"total={agg['total_s']:.3f}s max={agg['max_s']:.3f}s",
                file=out,
            )
    if summary["first_ts"] is not None and summary["last_ts"] is not None:
        window = summary["last_ts"] - summary["first_ts"]
        print(f"window: {window:.3f}s", file=out)
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args, out)
    except CliError as error:
        print(f"error: {error}", file=sys.stderr)
        return error.code
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
