"""Deterministic fault-injection plans for the live network stack.

A :class:`FaultPlan` declares, as plain data, how a network misbehaves:
per-datagram loss, a base one-way latency with uniform jitter,
duplication, reordering, per-link overrides and timed partitions.  Plans
are frozen dataclasses built from JSON primitives only, so they

* **round-trip through JSON** (``FaultPlan.from_json(plan.to_json()) ==
  plan``), travel inside a :class:`~repro.live.runtime.LiveNodeSpec` to
  node processes, and can live in config files;
* **participate in the stable cache key** — :meth:`FaultPlan.key` is a
  canonical tuple of scalars, hashable by
  :func:`repro.experiments.store.stable_key_hash` alongside the rest of a
  run's structural identity;
* are registered as a new ``fault`` component kind in
  :mod:`repro.registry`, so ``avmon live up --fault LOSSY`` and
  ``Scenario(fault="LOSSY")`` name the same plans.

A :class:`FaultInjector` executes one plan **deterministically**: every
``(src, dst)`` link gets its own ``random.Random(seed).random()`` stream,
seeded from a BLAKE2b digest of ``(plan.seed, src, dst)``, so the decision
sequence for a link depends only on the plan and the order of sends on
that link — never on interleaving across links, process ids or
``PYTHONHASHSEED``.  A link holds its upcoming draws in a small
``array('d')`` (not a 2.5 KB generator: an overlay has N² links and most
draw a few dozen values), and keeps a generator only once it outgrows
that buffer.
The same injector drives three fabrics: the in-process
:class:`~repro.live.memory_transport.MemoryNetwork` (applied in the hub),
the real :class:`~repro.live.transport.UdpTransport` (applied on the send
side), and the simulator's :class:`~repro.net.network.Network` (extra
delay/drops on top of the modelled latency).

Endpoint labels are node ids (ints) for overlay members and well-known
strings (``"introducer"``, ``"supervisor"``) for infrastructure; a ``None``
label means "unidentified" and matches only the global parameters, never a
link rule or partition group.
"""

from __future__ import annotations

import hashlib
import json
import random
from array import array
from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ..registry import register

__all__ = [
    "Label",
    "LinkFault",
    "Partition",
    "FaultPlan",
    "FaultStats",
    "FaultInjector",
    "introducer_label",
    "is_introducer_label",
    "parse_partition_groups",
]

#: An endpoint identity a plan can refer to: a node id, a well-known
#: infrastructure name, or ``"*"`` (in link rules) for "any endpoint".
Label = Union[int, str]

#: Wildcard endpoint in link rules.
ANY = "*"

#: The supervisor's scrape/control endpoint label.
SUPERVISOR = "supervisor"

#: The introducer's endpoint label (the primary replica; further replicas
#: are labelled by :func:`introducer_label`).
INTRODUCER = "introducer"


def introducer_label(index: int) -> str:
    """The fault-injection label of introducer replica *index*.

    Replica 0 keeps the bare :data:`INTRODUCER` label so every existing
    plan (and stored cache key) that names ``"introducer"`` still hits the
    primary; replicas beyond it are ``introducer-1``, ``introducer-2``, …
    """
    if index < 0:
        raise ValueError(f"introducer index must be >= 0, got {index}")
    return INTRODUCER if index == 0 else f"{INTRODUCER}-{index}"


def is_introducer_label(label: "Label") -> bool:
    """True for the primary's label or any ``introducer-<i>`` replica."""
    if not isinstance(label, str):
        return False
    if label == INTRODUCER:
        return True
    prefix = f"{INTRODUCER}-"
    return label.startswith(prefix) and label[len(prefix):].isdigit()

#: The serving front end's observer-client endpoint label (see
#: :mod:`repro.serve`): partitioning it from the overlay exercises the
#: query path's timeout/partial-result handling without touching the
#: protocol traffic between nodes.
SERVE = "serve"


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


def _check_non_negative(name: str, value: float) -> None:
    if value < 0.0:
        raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class LinkFault:
    """Overrides for one directed link; ``None`` fields inherit the plan's.

    ``src``/``dst`` are endpoint labels or ``"*"``; the first rule matching
    a datagram's (source, destination) wins.
    """

    src: Label = ANY
    dst: Label = ANY
    loss: Optional[float] = None
    latency: Optional[float] = None
    jitter: Optional[float] = None
    duplicate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.loss is not None:
            _check_probability("link loss", self.loss)
        if self.duplicate is not None:
            _check_probability("link duplicate", self.duplicate)
        for name in ("latency", "jitter"):
            value = getattr(self, name)
            if value is not None:
                _check_non_negative(f"link {name}", value)

    def matches(self, src: Optional[Label], dst: Optional[Label]) -> bool:
        return (self.src == ANY or self.src == src) and (
            self.dst == ANY or self.dst == dst
        )


@dataclass(frozen=True)
class Partition:
    """A timed split of the overlay into non-communicating groups.

    Active while ``start <= now < end`` (``end < 0`` means "never heals").
    ``groups`` are tuples of endpoint labels; two *labelled* endpoints in
    different groups cannot exchange datagrams while the partition is
    active.  Endpoints in no group (including unlabelled control traffic)
    are unaffected.

    Infrastructure labels (:data:`SUPERVISOR`, :data:`INTRODUCER`) in a
    group cut those paths on the in-memory fabric, where the hub labels
    both endpoints of every datagram.  On the real UDP fabric faults run
    send-side in each node: nodes recognise the introducer's address (so
    :data:`INTRODUCER` groups work), but cannot identify the supervisor's
    scrape endpoint — :data:`SUPERVISOR` groups are a no-op there, and
    ``avmon live chaos`` warns when one is pushed.
    """

    groups: Tuple[Tuple[Label, ...], ...] = ()
    start: float = 0.0
    end: float = -1.0

    def __post_init__(self) -> None:
        _check_non_negative("partition start", self.start)
        object.__setattr__(
            self, "groups", tuple(tuple(group) for group in self.groups)
        )

    def active(self, now: float) -> bool:
        return now >= self.start and (self.end < 0.0 or now < self.end)

    def separates(self, src: Optional[Label], dst: Optional[Label]) -> bool:
        src_group = self._group_of(src)
        dst_group = self._group_of(dst)
        if src_group is None or dst_group is None:
            return False
        return src_group != dst_group

    def _group_of(self, label: Optional[Label]) -> Optional[int]:
        if label is None:
            return None
        for index, group in enumerate(self.groups):
            if label in group:
                return index
        return None


@dataclass(frozen=True)
class FaultPlan:
    """One network's misbehaviour, declaratively (JSON-portable)."""

    #: Per-datagram drop probability on every link.
    loss: float = 0.0
    #: Base one-way delay added to every delivered datagram, in seconds.
    latency: float = 0.0
    #: Uniform extra delay in ``[0, jitter)`` per datagram.
    jitter: float = 0.0
    #: Probability a datagram is delivered twice.
    duplicate: float = 0.0
    #: Probability a datagram is held back by ``reorder_window`` seconds —
    #: long enough to arrive after datagrams sent later.
    reorder: float = 0.0
    reorder_window: float = 0.05
    #: Per-link overrides; first match wins.
    links: Tuple[LinkFault, ...] = ()
    #: Timed partitions; any active one that separates a pair drops it.
    partitions: Tuple[Partition, ...] = ()
    #: Root of every link's deterministic decision stream.
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("loss", "duplicate", "reorder"):
            _check_probability(name, getattr(self, name))
        for name in ("latency", "jitter", "reorder_window"):
            _check_non_negative(name, getattr(self, name))
        object.__setattr__(
            self,
            "links",
            tuple(
                link if isinstance(link, LinkFault) else LinkFault(**link)
                for link in self.links
            ),
        )
        object.__setattr__(
            self,
            "partitions",
            tuple(
                part if isinstance(part, Partition) else Partition(**part)
                for part in self.partitions
            ),
        )

    # -- interrogation -----------------------------------------------------

    def is_null(self) -> bool:
        """True when the plan perturbs nothing (a perfect network)."""
        return (
            self.loss == 0.0
            and self.latency == 0.0
            and self.jitter == 0.0
            and self.duplicate == 0.0
            and self.reorder == 0.0
            and not self.links
            and not self.partitions
        )

    def link_params(
        self, src: Optional[Label], dst: Optional[Label]
    ) -> Tuple[float, float, float, float]:
        """Effective ``(loss, latency, jitter, duplicate)`` for one link."""
        for link in self.links:
            if link.matches(src, dst):
                return (
                    self.loss if link.loss is None else link.loss,
                    self.latency if link.latency is None else link.latency,
                    self.jitter if link.jitter is None else link.jitter,
                    self.duplicate if link.duplicate is None else link.duplicate,
                )
        return (self.loss, self.latency, self.jitter, self.duplicate)

    def partitioned(
        self, src: Optional[Label], dst: Optional[Label], now: float
    ) -> bool:
        return any(
            part.active(now) and part.separates(src, dst)
            for part in self.partitions
        )

    # -- functional updates ------------------------------------------------

    def with_params(self, **changes: Any) -> "FaultPlan":
        return replace(self, **changes)

    # -- identity ----------------------------------------------------------

    def key(self) -> Tuple:
        """Canonical scalar tuple for the stable cache key.

        Built from declared values only (never ``repr``/``hash``), so it is
        digestible by :func:`repro.experiments.store.stable_key_hash` and
        identical in every process.
        """
        return (
            "FAULT",
            self.loss,
            self.latency,
            self.jitter,
            self.duplicate,
            self.reorder,
            self.reorder_window,
            tuple(
                (l.src, l.dst, l.loss, l.latency, l.jitter, l.duplicate)
                for l in self.links
            ),
            tuple((p.groups, p.start, p.end) for p in self.partitions),
            self.seed,
        )

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown FaultPlan fields: {', '.join(unknown)}; "
                f"expected a subset of: {', '.join(sorted(known))}"
            )
        return cls(**payload)  # __post_init__ builds links and partitions

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError(
                f"FaultPlan JSON must be an object, got {type(payload).__name__}"
            )
        return cls.from_dict(payload)


@dataclass
class FaultStats:
    """What one injector did to the traffic it saw."""

    passed: int = 0
    dropped: int = 0
    partitioned: int = 0
    duplicated: int = 0
    delayed: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(vars(self))


class FaultInjector:
    """Executes one :class:`FaultPlan` with per-link deterministic streams.

    :meth:`plan_delivery` is the single decision point every fabric calls:
    it returns the tuple of delivery delays for one datagram — empty means
    dropped, one entry is the normal case, two means a duplicate.  The
    stream for a link depends only on ``(plan.seed, src, dst)`` and the
    number of prior sends on that link, so identical runs make identical
    decisions whatever the global event interleaving.  A link's effective
    parameters and its first :data:`_BUFFER` draws are worked out at its
    first send under a plan and kept in a per-link table until the next
    :meth:`set_plan`; a link that reads near the end of its buffer swaps
    it for the generator, stepped to the first value not yet read.
    """

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.stats = FaultStats()
        self.set_plan(plan if plan is not None else FaultPlan())

    def set_plan(self, plan: FaultPlan) -> None:
        """Swap the plan at runtime (``avmon live chaos --loss ...``).

        Decision streams restart: a new plan is a new experiment.
        """
        self.plan = plan
        #: Whether the plan perturbs nothing; whether it reads the clock.
        self.null, self.timed = plan.is_null(), bool(plan.partitions)
        #: Per-link ``(draws, loss, latency, jitter, duplicate, buffered)``
        #: keyed by ``(type, label, type, label)``: ``True`` and ``1`` stay
        #: apart.  ``draws.pop()`` is the stream's next value: ``draws`` is
        #: the buffer (next value last) while ``buffered``, else the
        #: generator.
        self._links: Dict[tuple, tuple] = {}

    def _stream(self, src: Optional[Label], dst: Optional[Label]) -> _Stream:
        """A fresh generator for the ``src -> dst`` stream."""
        text = json.dumps(
            [self.plan.seed, _label_token(src), _label_token(dst)],
            separators=(",", ":"),
        )
        digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
        return _Stream(int.from_bytes(digest, "big"))

    def _link(self, key: tuple, src: Optional[Label], dst: Optional[Label]) -> tuple:
        rng = self._stream(src, dst)
        draws = array("d", [rng.random() for _ in range(_BUFFER)])
        draws.reverse()
        link = self._links[key] = (draws, *self.plan.link_params(src, dst), True)
        return link

    def _outgrow(
        self, key: tuple, src: Optional[Label], dst: Optional[Label], link: tuple
    ) -> _Stream:
        """Swap a link's nearly read buffer for its generator."""
        rng = self._stream(src, dst)
        for _ in range(_BUFFER - len(link[0])):  # step past the values read
            rng.random()
        self._links[key] = (rng, *link[1:5], False)
        return rng

    def plan_delivery(
        self,
        src: Optional[Label],
        dst: Optional[Label],
        now: float,
    ) -> Tuple[float, ...]:
        """Delivery delays for one datagram on ``src -> dst`` at ``now``.

        ``()`` means the datagram is lost (partition or random loss); each
        returned float is one copy's extra one-way delay in seconds.
        *now* is read only when the plan has partitions (:attr:`timed`).
        """
        stats = self.stats
        if self.null:
            stats.passed += 1
            return (0.0,)
        plan = self.plan
        if self.timed and plan.partitioned(src, dst, now):
            stats.partitioned += 1
            return ()
        key = (src.__class__, src, dst.__class__, dst)
        link = self._links.get(key)
        if link is None:
            link = self._link(key, src, dst)
        draws, loss, latency, jitter, duplicate, buffered = link
        if buffered and len(draws) < _MAX_DRAWS:
            draws = self._outgrow(key, src, dst, link)
        if loss > 0.0 and draws.pop() < loss:
            stats.dropped += 1
            return ()
        if duplicate > 0.0 and draws.pop() < duplicate:
            stats.duplicated += 1
            delays = (
                self._delay(draws, latency, jitter),
                self._delay(draws, latency, jitter),
            )
        else:
            delays = (self._delay(draws, latency, jitter),)
        if max(delays) > 0.0:
            stats.delayed += 1
        stats.passed += 1
        return delays

    def _delay(self, draws, latency: float, jitter: float) -> float:
        """One copy's delay: latency, a jitter draw, maybe the reorder hold."""
        if jitter > 0.0:
            latency += draws.pop() * jitter
        plan = self.plan
        if plan.reorder > 0.0 and draws.pop() < plan.reorder:
            latency += plan.reorder_window
        return latency


class _Stream(random.Random):
    """A link's generator, read as its buffer is: ``pop()`` is ``random()``."""

    pop = random.Random.random


#: Stream values a link buffers at its first send.  Most links draw fewer
#: in a whole run (about 30 is the median on ``overlay-steady``), so only
#: a busy one builds the 2.5 KB generator again to read on from it.
_BUFFER = 64

#: Most values one datagram draws: loss, duplicate, then jitter and
#: reorder for each of two copies.
_MAX_DRAWS = 6


def _label_token(label: Optional[Label]) -> str:
    """A collision-free string form of a label for RNG-stream keying."""
    if label is None:
        return "?"
    if isinstance(label, bool) or not isinstance(label, int):
        return f"s:{label}"
    return f"i:{label}"


#: String labels a partition spec may name besides integer node ids.
_KNOWN_LABELS = (SUPERVISOR, INTRODUCER, SERVE)


def parse_partition_groups(text: str) -> Tuple[Tuple[Label, ...], ...]:
    """Parse the CLI's ``"0,1,2|3,4"`` partition syntax into groups.

    Tokens must be integer node ids, the known infrastructure labels
    (``supervisor``, ``introducer``, ``serve``) or a per-replica
    introducer label (``introducer-1``, ``introducer-2``, …).  Anything
    else is rejected — a typo'd id (``O`` for ``0``) silently matching
    nothing would leave the operator measuring a different topology than
    they asked for.
    """
    groups = []
    for part in text.split("|"):
        members = []
        for token in part.split(","):
            token = token.strip()
            if not token:
                continue
            if token.isdigit():  # non-negative: no node has a negative id
                members.append(int(token))
            elif token.lower() in _KNOWN_LABELS or is_introducer_label(
                token.lower()
            ):
                members.append(token.lower())
            else:
                raise ValueError(
                    f"unknown partition member {token!r}: expected a node "
                    f"id, one of {', '.join(_KNOWN_LABELS)}, or "
                    f"introducer-<i>"
                )
        if members:
            groups.append(tuple(members))
    if len(groups) < 2:
        raise ValueError(
            f"a partition needs at least two groups, got {text!r} "
            f"(syntax: '0,1,2|3,4[|...]')"
        )
    return tuple(groups)


# -- registered plans --------------------------------------------------------
#
# Every factory shares the signature ``factory(**params) -> FaultPlan`` and
# accepts overrides for its defaults, so ``avmon live up --fault LOSSY`` and
# ``create("fault", "LOSSY", loss=0.25)`` both work.


@register("fault", "NONE")
def _make_none(**params: Any) -> FaultPlan:
    """A perfect network (the default)."""
    return FaultPlan(**params)


@register("fault", "LOSSY")
def _make_lossy(**params: Any) -> FaultPlan:
    """10% independent per-datagram loss on every link."""
    params.setdefault("loss", 0.1)
    return FaultPlan(**params)


@register("fault", "WAN")
def _make_wan(**params: Any) -> FaultPlan:
    """Wide-area flavour: 30 ms base latency, 20 ms jitter, 1% loss."""
    params.setdefault("latency", 0.03)
    params.setdefault("jitter", 0.02)
    params.setdefault("loss", 0.01)
    return FaultPlan(**params)


@register("fault", "FLAKY")
def _make_flaky(**params: Any) -> FaultPlan:
    """Loss plus duplication plus reordering, all at once."""
    params.setdefault("loss", 0.05)
    params.setdefault("duplicate", 0.02)
    params.setdefault("reorder", 0.1)
    params.setdefault("jitter", 0.01)
    return FaultPlan(**params)
