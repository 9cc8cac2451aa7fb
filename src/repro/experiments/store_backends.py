"""Pluggable storage backends for the content-addressed summary store.

:class:`~repro.experiments.store.SummaryStore` owns the *addressing*
contract — which structural key maps to which object name, and how a
summary serialises — while a :class:`StoreBackend` owns the *bytes*:
where named objects live and how they are read, written, listed and
deleted.  Splitting the two lets every orchestration layer (sweeps, the
worker fleet, the serving tier) share one cache wherever it lives:

* :class:`FilesystemBackend` — the original layout: one
  ``<hash>.json`` file per entry under a local directory, atomic
  writes, corrupt files tolerated as misses.  The default, and what
  ``avmon store serve`` itself persists into.
* :class:`SharedStoreBackend` — a client for the small HTTP object
  protocol served by ``avmon store serve`` (see
  :mod:`repro.experiments.store_server`), so a fleet of sweep workers
  on many hosts — and multiple serve front ends — read-through and
  write-through one cache.

Error model (what :class:`SummaryStore` relies on):

* ``get`` returns the object's text, or ``None`` when the name is not
  stored; any other problem (unreadable file, unreachable store,
  non-2xx reply) raises :class:`OSError` — the store layer turns that
  into a warned miss, never a crashed sweep.
* ``put`` raises :class:`OSError` on failure; the store layer warns and
  carries on (the computed summary is already in hand).

Backends are cheap to construct and **picklable by spec**: ``spec()``
returns a plain string (a directory path or an ``http://`` URL) from
which :func:`backend_from_spec` — and therefore a worker process that
received only the string — reopens an equivalent backend.
"""

from __future__ import annotations

import abc
import http.client
import json
import os
import pathlib
import re
import time
import urllib.parse
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from ..ioutils import atomic_write_text

__all__ = [
    "StoreEntry",
    "StoreBackend",
    "FilesystemBackend",
    "SharedStoreBackend",
    "backend_from_spec",
    "is_url_spec",
    "valid_object_name",
]

#: Object names the protocol accepts: flat, extension-bearing, no path
#: tricks.  Both backends and the server enforce this, so a hostile name
#: can never escape the store directory.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def valid_object_name(name: str) -> bool:
    """Whether *name* is a legal flat object name (no separators/``..``)."""
    return bool(_NAME_RE.match(name)) and ".." not in name


def _check_name(name: str) -> str:
    if not valid_object_name(name):
        raise ValueError(f"illegal store object name: {name!r}")
    return name


@dataclass(frozen=True)
class StoreEntry:
    """One stored object: its flat name and size in bytes."""

    name: str
    size: int


class StoreBackend(abc.ABC):
    """Named-object storage underneath :class:`SummaryStore`."""

    @abc.abstractmethod
    def get(self, name: str) -> Optional[str]:
        """The stored text for *name*, or None when absent (OSError on error)."""

    @abc.abstractmethod
    def put(self, name: str, text: str) -> None:
        """Store *text* under *name* (OSError on failure)."""

    @abc.abstractmethod
    def delete(self, name: str) -> bool:
        """Remove *name*; True when an object was actually deleted."""

    @abc.abstractmethod
    def entries(self) -> Tuple[StoreEntry, ...]:
        """Every stored object, sorted by name."""

    @abc.abstractmethod
    def spec(self) -> str:
        """A plain string that reopens this backend (path or URL)."""

    def exists(self, name: str) -> bool:
        return self.get(name) is not None

    def close(self) -> None:
        """Release whatever the backend holds open (by default, nothing)."""

    def location(self, name: str) -> Union[pathlib.Path, str]:
        """Where *name* lives, for humans (a path or a URL)."""
        return f"{self.spec()}/{name}"

    def describe(self) -> str:
        return self.spec()

    def clear(self) -> int:
        """Delete every object; returns how many were removed."""
        removed = 0
        for entry in self.entries():
            if self.delete(entry.name):
                removed += 1
        return removed

    def stat(self) -> dict:
        """Totals for inspection tooling (``avmon cache stat`` / ``store stat``)."""
        entries = self.entries()
        return {
            "dir": self.describe(),
            "entries": len(entries),
            "total_bytes": sum(entry.size for entry in entries),
        }


class FilesystemBackend(StoreBackend):
    """The original store layout: one file per object under *root*."""

    def __init__(self, root: Union[str, pathlib.Path]) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def get(self, name: str) -> Optional[str]:
        try:
            return (self.root / _check_name(name)).read_text(encoding="utf-8")
        except FileNotFoundError:
            return None

    def compact(self, *, tmp_age: float = 60.0) -> dict:
        """Sweep the directory of write debris: stale ``*.tmp*`` scratch
        files (left by killed writers) and ``.json`` entries that no
        longer parse (torn by a crashed non-atomic writer; readers treat
        them as misses forever, so they are pure dead weight).

        *tmp_age* guards in-flight writes: scratch files younger than it
        are left alone.  Returns ``{"removed_tmp": n, "removed_corrupt": m}``.
        """
        removed_tmp = removed_corrupt = 0
        now = time.time()
        for path in self.root.iterdir():
            if not path.is_file():
                continue
            if ".tmp" in path.name:
                try:
                    if now - path.stat().st_mtime >= tmp_age:
                        path.unlink()
                        removed_tmp += 1
                except OSError:
                    continue
            elif path.suffix == ".json":
                try:
                    json.loads(path.read_text(encoding="utf-8"))
                except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                    try:
                        path.unlink()
                        removed_corrupt += 1
                    except OSError:
                        continue
        return {"removed_tmp": removed_tmp, "removed_corrupt": removed_corrupt}

    def put(self, name: str, text: str) -> None:
        atomic_write_text(self.root / _check_name(name), text)

    def delete(self, name: str) -> bool:
        path = self.root / _check_name(name)
        try:
            path.unlink()
        except FileNotFoundError:
            return False
        return True

    def exists(self, name: str) -> bool:
        return (self.root / _check_name(name)).exists()

    def entries(self) -> Tuple[StoreEntry, ...]:
        found = []
        for path in self.root.glob("*.json"):
            if not path.is_file():
                continue
            try:
                size = path.stat().st_size
            except OSError:
                continue  # vanished under us (a concurrent clear)
            found.append(StoreEntry(path.name, size))
        return tuple(sorted(found, key=lambda entry: entry.name))

    def location(self, name: str) -> pathlib.Path:
        return self.root / name

    def spec(self) -> str:
        return str(self.root)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FilesystemBackend({str(self.root)!r})"


class SharedStoreBackend(StoreBackend):
    """Client for the ``avmon store serve`` HTTP object protocol.

    Speaks plain HTTP/1.1 via :mod:`http.client` (synchronous — worker
    processes call it from straight-line simulation code).  Object text
    travels as a JSON string field, so stored bytes round-trip exactly;
    the server persists them through a :class:`FilesystemBackend`, which
    keeps the on-disk layout identical to a local cache directory.

    One connection is kept alive per backend instance and transparently
    re-established (with bounded retries and backoff) when the daemon
    restarts or the connection drops — a shared cache briefly away is a
    cache miss, never a dead sweep.  Instances pickle cleanly: only the
    URL travels; the socket is per-process, lazily opened.
    """

    def __init__(
        self,
        url: str,
        *,
        timeout: float = 10.0,
        retries: int = 2,
        retry_backoff: float = 0.2,
        auth_token: Optional[str] = None,
    ) -> None:
        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme not in ("http",) or not parsed.hostname:
            raise ValueError(
                f"shared store URL must be http://host:port, got {url!r}"
            )
        self.url = url.rstrip("/")
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        #: Bearer token for daemons started with ``--auth-token``; the
        #: env fallback keeps ``spec()`` a plain URL (workers re-open
        #: backends from the spec alone and still authenticate).
        self.auth_token = (
            auth_token
            if auth_token is not None
            else os.environ.get("AVMON_STORE_TOKEN") or None
        )
        self._connection: Optional[http.client.HTTPConnection] = None

    # -- pickling ----------------------------------------------------------

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_connection"] = None
        return state

    # -- transport ---------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._connection

    def _reset(self) -> None:
        if self._connection is not None:
            try:
                self._connection.close()
            except Exception:  # noqa: BLE001 - best-effort socket teardown
                pass
            self._connection = None

    def _request(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> Tuple[int, dict]:
        """One round trip; reconnects and retries on transport failure."""
        body = (
            json.dumps(payload, sort_keys=True).encode("utf-8")
            if payload is not None
            else None
        )
        headers = {"Content-Type": "application/json"} if body else {}
        if self.auth_token:
            headers["Authorization"] = f"Bearer {self.auth_token}"
        last_error: Optional[Exception] = None
        # Attempt 0 fires immediately; retry i (0-based) sleeps
        # backoff * 2**i first, pinning the schedule to
        # [backoff, 2*backoff, 4*backoff, ...] exactly.
        for retry_number in range(self.retries + 1):
            if retry_number:
                time.sleep(self.retry_backoff * (2 ** (retry_number - 1)))
            try:
                connection = self._connect()
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                raw = response.read()
            except (OSError, http.client.HTTPException) as error:
                self._reset()
                last_error = error
                continue
            try:
                parsed = json.loads(raw) if raw else {}
            except json.JSONDecodeError as error:
                self._reset()
                last_error = error
                continue
            if not isinstance(parsed, dict):
                parsed = {"value": parsed}
            return response.status, parsed
        raise OSError(
            f"shared store {self.url} unreachable after "
            f"{self.retries + 1} attempts ({last_error})"
        )

    # -- protocol ----------------------------------------------------------

    def get(self, name: str) -> Optional[str]:
        status, payload = self._request("GET", f"/objects/{_check_name(name)}")
        if status == 404:
            return None
        if status != 200 or not isinstance(payload.get("text"), str):
            raise OSError(
                f"shared store GET {name} failed: HTTP {status} {payload}"
            )
        return payload["text"]

    def put(self, name: str, text: str) -> None:
        status, payload = self._request(
            "PUT", f"/objects/{_check_name(name)}", {"text": text}
        )
        if status != 200:
            raise OSError(
                f"shared store PUT {name} failed: HTTP {status} {payload}"
            )

    def delete(self, name: str) -> bool:
        status, payload = self._request(
            "DELETE", f"/objects/{_check_name(name)}"
        )
        if status == 404:
            return False
        if status != 200:
            raise OSError(
                f"shared store DELETE {name} failed: HTTP {status} {payload}"
            )
        return bool(payload.get("deleted"))

    def entries(self) -> Tuple[StoreEntry, ...]:
        status, payload = self._request("GET", "/objects")
        if status != 200 or not isinstance(payload.get("entries"), list):
            raise OSError(f"shared store listing failed: HTTP {status}")
        return tuple(
            StoreEntry(entry["name"], int(entry["bytes"]))
            for entry in payload["entries"]
        )

    def stat(self) -> dict:
        status, payload = self._request("GET", "/stat")
        if status != 200:
            raise OSError(f"shared store stat failed: HTTP {status}")
        payload.setdefault("dir", self.url)
        return payload

    def call(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> Tuple[int, dict]:
        """One JSON round trip to an arbitrary daemon endpoint.

        The task board's clients speak through this so they inherit
        the keep-alive connection, retry schedule and bearer auth
        without re-growing a transport.
        """
        return self._request(method, path, payload)

    def compact(self, *, tmp_age: float = 60.0) -> dict:
        """Ask the daemon to compact its directory (auth-gated)."""
        status, payload = self._request(
            "POST", "/compact", {"tmp_age": tmp_age}
        )
        if status != 200:
            raise OSError(
                f"shared store compact failed: HTTP {status} {payload}"
            )
        return payload

    def location(self, name: str) -> str:
        return f"{self.url}/objects/{name}"

    def spec(self) -> str:
        return self.url

    def close(self) -> None:
        self._reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SharedStoreBackend({self.url!r})"


def is_url_spec(spec: Union[str, pathlib.Path]) -> bool:
    """Whether *spec* names a shared store (URL) rather than a directory."""
    return isinstance(spec, str) and spec.startswith(("http://", "https://"))


def backend_from_spec(spec: Union[str, pathlib.Path]) -> StoreBackend:
    """Reopen a backend from its :meth:`StoreBackend.spec` string.

    ``http://host:port`` becomes a :class:`SharedStoreBackend`; anything
    else is a filesystem directory.  This is how worker processes — which
    receive only the picklable spec — attach to the sweep's cache.
    """
    if is_url_spec(spec):
        return SharedStoreBackend(str(spec))
    return FilesystemBackend(spec)
