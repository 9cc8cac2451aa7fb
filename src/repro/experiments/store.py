"""Disk-backed summary store: content-addressed, resumable across processes.

The in-process :class:`~repro.experiments.cache.SimulationCache` dies with
its process; every CLI invocation of ``avmon run``/``avmon sweep`` used to
recompute the same base simulations from scratch.  :class:`SummaryStore`
persists each :class:`~repro.experiments.summary.SimulationSummary` as one
JSON file whose name is a stable hash of the run's structural cache key
(:func:`config_key`), so

* a killed sweep resumed with the same arguments recomputes only the
  missing cells (the orchestrator consults the store before simulating and
  writes back as results arrive), and
* separate processes — workers, repeat CLI invocations, CI jobs — share
  one directory of results, ACME-style: monitoring data collection as a
  resumable, queryable artifact rather than an in-process object graph.

Key stability contract
----------------------

:func:`stable_key_hash` must give the same digest for the same experiment
in every process, forever:

* keys are built exclusively from declared configuration values — public
  latency-model attributes (:func:`latency_key` skips ``_``-prefixed,
  lazily-memoised state), full-precision floats, and the trace *content*
  hash — never from ``repr`` output, ``id()`` addresses or Python's
  per-process-salted ``hash()``;
* the digest is BLAKE2b over a canonical JSON encoding (sorted keys,
  minimal separators), so it is independent of process, platform and
  ``PYTHONHASHSEED``.

Writes are atomic (temp file + ``os.replace``), and a corrupt or truncated
file — e.g. left by a power loss mid-write on a non-atomic filesystem —
loads as a miss with a warning, never a crash: the cell is simply
recomputed and the file rewritten.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import Optional, Tuple, Union

from .runner import SimulationConfig
from .store_backends import (
    FilesystemBackend,
    StoreBackend,
    StoreEntry,
    backend_from_spec,
)
from .summary import SimulationSummary

__all__ = [
    "SummaryStore",
    "config_key",
    "latency_key",
    "stable_key_hash",
    "store_filename",
]


def latency_key(latency) -> Optional[Tuple]:
    """Structural key for a pluggable latency model.

    Keyed on the type name plus the *public* declared attributes in sorted
    order.  ``_``-prefixed attributes are skipped: they are lazy memoisation
    state (an attribute set on first ``sample()`` call would flip the key of
    an otherwise identical model, turning cache hits into misses).  Reprs
    are never used — ``LogNormalLatency`` rounds its parameters and the
    default ``object.__repr__`` embeds a process-local address, so repr keys
    either collide or never match across processes.

    Models without a ``__dict__`` (``__slots__`` classes, C extension
    types) fall back to a deterministic type-name-only key and a loud
    warning: distinct parameterisations of such a type would share one
    cache entry, which callers should know about.
    """
    if latency is None:
        return None
    try:
        attributes = vars(latency)
    except TypeError:  # __slots__ or C types: no __dict__ to inspect
        warnings.warn(
            f"latency model {type(latency).__name__} has no __dict__; "
            f"its cache key falls back to the type name alone, so distinct "
            f"parameterisations of this type will share a cache entry. "
            f"Give the class a __dict__ (or register parameters as public "
            f"attributes) to make runs with it cacheable by content.",
            RuntimeWarning,
            stacklevel=2,
        )
        return (type(latency).__name__,)
    public = tuple(
        sorted(
            (name, value)
            for name, value in attributes.items()
            if not name.startswith("_")
        )
    )
    return (type(latency).__name__, public)


def config_key(config: SimulationConfig) -> Tuple:
    """The structural identity of one simulation run.

    Two configs with equal keys produce byte-identical summaries (the
    simulator's randomness derives only from the seed), so the key is safe
    to use for both in-memory memoisation and the on-disk store.  Traces
    are fingerprinted by *content* hash — shallow shapes like
    ``(len, duration)`` collide for traces generated from different seeds.
    """
    avmon = config.resolved_avmon()
    trace_fingerprint = None
    if config.trace is not None:
        trace_fingerprint = config.trace.content_hash()
    key = (
        config.model_key,
        config.n,
        config.duration,
        config.warmup,
        config.control_fraction,
        config.seed,
        config.churn_per_hour,
        config.birth_death_per_day,
        config.overreport_fraction,
        config.latency_low,
        config.latency_high,
        latency_key(config.latency),
        config.sample_interval,
        trace_fingerprint,
        (
            avmon.n_expected,
            avmon.k,
            avmon.cvs,
            avmon.protocol_period,
            avmon.monitoring_period,
            avmon.forgetful_tau,
            avmon.forgetful_c,
            avmon.enable_forgetful,
            avmon.enable_pr2,
            avmon.ping_timeout,
            avmon.entry_bytes,
            avmon.hash_algorithm,
        ),
    )
    if config.fault is not None and not config.fault.is_null():
        # Appended only for faulty runs: every fault-free cell already on
        # disk keeps its address (see the key-stability contract above).
        key = key + (config.fault.key(),)
    return key


def _canonical(value):
    """Reduce a key to JSON-encodable primitives, preserving distinctions.

    Tuples become lists (JSON has no tuple); scalars pass through.  Booleans
    and integers stay distinct (``true`` vs ``1``), as do ints and floats
    (``1`` vs ``1.0``) — ``json.dumps`` renders each unambiguously.
    """
    if isinstance(value, (tuple, list)):
        return [_canonical(item) for item in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError(
        f"cache key contains a non-serialisable value of type "
        f"{type(value).__name__}: {value!r}"
    )


def stable_key_hash(key: Tuple) -> str:
    """Process-independent hex digest of a structural cache key.

    Canonical JSON (sorted keys, minimal separators) hashed with BLAKE2b;
    never Python's builtin ``hash()``, which is salted per process for
    strings.  Float encoding relies on ``repr``'s shortest-round-trip
    guarantee, identical across conforming CPython builds.
    """
    import hashlib

    text = json.dumps(_canonical(key), sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def store_filename(config: SimulationConfig) -> str:
    """The store-relative filename for one config's summary."""
    return f"{stable_key_hash(config_key(config))}.json"


class SummaryStore:
    """Content-addressed collection of serialised simulation summaries.

    One JSON object per distinct :func:`config_key`; object names are
    :func:`stable_key_hash` digests, so any process pointed at the same
    backend resolves the same experiments to the same objects.  Instances
    track ``hits`` / ``misses`` / ``writes`` so orchestration layers can
    report how much of a sweep was resumed versus recomputed.

    The store owns addressing and the summary codec; *where* the bytes
    live is a pluggable :class:`~repro.experiments.store_backends.
    StoreBackend`.  ``SummaryStore(directory)`` keeps the original local
    layout (a :class:`FilesystemBackend`); ``SummaryStore.open(spec)``
    also accepts an ``http://host:port`` URL and attaches to a shared
    ``avmon store serve`` daemon, so a worker fleet — and multiple serve
    front ends — read-through/write-through one cache.
    """

    def __init__(
        self,
        root: Union[str, os.PathLike, None] = None,
        *,
        backend: Optional[StoreBackend] = None,
    ) -> None:
        if backend is None:
            if root is None:
                raise ValueError("SummaryStore needs a root directory or a backend")
            backend = FilesystemBackend(root)
        elif root is not None:
            raise ValueError("pass either a root directory or a backend, not both")
        self.backend = backend
        self.hits = 0
        self.misses = 0
        self.writes = 0

    @classmethod
    def open(cls, spec: Union[str, os.PathLike]) -> "SummaryStore":
        """A store for *spec*: a local directory or an ``http://`` URL."""
        return cls(backend=backend_from_spec(spec))

    @property
    def root(self):
        """Where the store lives: a directory path or the shared-store URL."""
        backend = self.backend
        if isinstance(backend, FilesystemBackend):
            return backend.root
        return backend.describe()

    # -- addressing --------------------------------------------------------

    @staticmethod
    def name_for(key: Tuple) -> str:
        """The flat object name one structural key addresses."""
        return f"{stable_key_hash(key)}.json"

    def path_for(self, key: Tuple):
        """Where *key*'s summary lives (a path, or a URL for shared stores)."""
        return self.backend.location(self.name_for(key))

    # -- persistence -------------------------------------------------------

    def load(self, key: Tuple) -> Optional[SimulationSummary]:
        """The stored summary for *key*, or None (missing or corrupt).

        A file that cannot be read or parsed — truncated by a crash,
        damaged on disk, or written by an incompatible version — is
        reported with a warning and treated as a miss: the caller
        recomputes the cell and :meth:`save` overwrites the bad file.
        """
        path = self.path_for(key)
        try:
            text = self.backend.get(self.name_for(key))
        except OSError as error:
            warnings.warn(
                f"unreadable summary entry {path} ({error}); recomputing",
                RuntimeWarning,
                stacklevel=2,
            )
            self.misses += 1
            return None
        if text is None:
            self.misses += 1
            return None
        try:
            summary = SimulationSummary.from_json(text)
        except (
            json.JSONDecodeError,
            AttributeError,
            TypeError,
            ValueError,
            KeyError,
        ) as error:
            warnings.warn(
                f"corrupt summary file {path} ({error.__class__.__name__}: "
                f"{error}); recomputing",
                RuntimeWarning,
                stacklevel=2,
            )
            self.misses += 1
            return None
        self.hits += 1
        return summary

    def save(self, key: Tuple, summary: SimulationSummary):
        """Persist *summary* under *key*'s content address.

        The filesystem backend writes to a temp file + ``os.replace``, so
        concurrent readers (parallel sweeps sharing one store) never
        observe a partial file; the shared backend PUTs to the daemon,
        which does the same on its own disk.

        The store is a best-effort cache on the write side too: a failed
        write (disk full, store daemon down) is warned about and returns
        None rather than raising — the caller already holds the computed
        summary, and aborting a sweep to report an unsaveable by-product
        would discard finished work.

        Returns the entry's location (a path, or a URL for shared stores).
        """
        name = self.name_for(key)
        try:
            self.backend.put(name, summary.to_json())
        except OSError as error:
            warnings.warn(
                f"failed to persist summary to {self.backend.location(name)} "
                f"({error}); continuing without the cache write",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        self.writes += 1
        return self.backend.location(name)

    # -- introspection -----------------------------------------------------

    def __contains__(self, key: Tuple) -> bool:
        return self.backend.exists(self.name_for(key))

    def __len__(self) -> int:
        return len(self.backend.entries())

    def entries(self) -> Tuple[StoreEntry, ...]:
        """Every stored object (name + size), sorted by name."""
        return self.backend.entries()

    def paths(self) -> Tuple:
        """Every stored entry's location, sorted (``avmon cache ls``)."""
        return tuple(
            self.backend.location(entry.name) for entry in self.backend.entries()
        )

    def read_entry(self, name: str) -> Optional[SimulationSummary]:
        """Parse one stored object by name; None (no warning, no counter)
        when unreadable or corrupt.

        The inspection-side sibling of :meth:`load`: ``avmon cache ls``
        walks the backend's listing without knowing the structural keys
        that produced the names.
        """
        try:
            text = self.backend.get(name)
        except OSError:
            return None
        if text is None:
            return None
        return self._parse(text)

    @staticmethod
    def _parse(text: str) -> Optional[SimulationSummary]:
        try:
            return SimulationSummary.from_json(text)
        except (
            json.JSONDecodeError,
            AttributeError,
            TypeError,
            ValueError,
            KeyError,
        ):
            return None

    def clear(self) -> int:
        """Delete every entry; returns how many objects were removed.

        An entry that cannot be deleted (permissions, store daemon down)
        raises — claiming a clear succeeded while objects remain would be
        worse than failing.
        """
        return self.backend.clear()

    def spec(self) -> str:
        """The picklable string that reopens this store (path or URL).

        What the worker fleet ships to its processes: each worker calls
        :meth:`open` on the spec and attaches to the same cache.
        """
        return self.backend.spec()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SummaryStore({str(self.root)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses}, writes={self.writes})"
        )
