"""Execution backends: named strategies for running sweep cells.

Built-ins register under the ``"backend"`` component kind:

========  ==================================================  ============
name      strategy                                            extra params
========  ==================================================  ============
SERIAL    in this process, input order                        —
POOL      ``multiprocessing.Pool`` fan-out                    ``jobs``
REMOTE    network-attached workers leasing cells from the     ``lease_ttl``,
          store daemon (``avmon fleet worker --attach``)      ``claim_ttl``, ...
FLEET     local launcher of the same lease protocol: spawns   ``workers``,
          the workers itself against an in-process daemon     ``lease_timeout``, ...
          (survives SIGKILL of any worker mid-sweep)
========  ==================================================  ============

:func:`resolve_backend` is the single entry point callers use to turn a
user-facing spec (a name string, an already-built backend, or ``None``)
into an :class:`ExecutionBackend` instance.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from ...registry import register
from .base import (
    ExecutionBackend,
    Payload,
    RecordFn,
    default_jobs,
    execute_cell,
    split_error,
)
from .fleet import WorkerFleetBackend
from .local_pool import LocalPoolBackend
from .remote import RemoteWorkerBackend, run_fleet_worker
from .serial import SerialBackend

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "LocalPoolBackend",
    "WorkerFleetBackend",
    "RemoteWorkerBackend",
    "run_fleet_worker",
    "Payload",
    "RecordFn",
    "default_jobs",
    "execute_cell",
    "split_error",
    "resolve_backend",
]


@register("backend", "SERIAL")
def _make_serial(**params: Any) -> SerialBackend:
    params.pop("jobs", None)  # uniform CLI surface: SERIAL ignores jobs
    return SerialBackend(**params)


@register("backend", "POOL")
def _make_pool(**params: Any) -> LocalPoolBackend:
    return LocalPoolBackend(**params)


@register("backend", "FLEET")
def _make_fleet(**params: Any) -> WorkerFleetBackend:
    params.setdefault("workers", params.pop("jobs", None))
    return WorkerFleetBackend(**params)


@register("backend", "REMOTE")
def _make_remote(**params: Any) -> RemoteWorkerBackend:
    params.pop("jobs", None)  # parallelism lives in the attached workers
    return RemoteWorkerBackend(**params)


def resolve_backend(
    backend: Union[None, str, ExecutionBackend],
    *,
    jobs: Optional[int] = None,
    **params: Any,
) -> Optional[ExecutionBackend]:
    """Normalise a backend spec into an instance (or ``None`` = legacy).

    Accepts an :class:`ExecutionBackend` (returned as-is; extra params
    rejected), a registered name (``"serial"``, ``"POOL"``, ``"fleet"`` —
    case/underscore-insensitive, constructed with *jobs* and *params*),
    or ``None`` (the orchestrator picks serial vs pool from ``jobs``,
    preserving the pre-backend behaviour exactly).
    """
    if backend is None:
        return None
    if isinstance(backend, ExecutionBackend):
        if params:
            raise ValueError(
                "backend params only apply when resolving by name; "
                f"got an instance plus {sorted(params)}"
            )
        return backend
    from ...registry import create

    if jobs is not None:
        params.setdefault("jobs", jobs)
    return create("backend", backend, **params)
