"""Compiled wire codec: canonical JSON datagrams, planned once per type.

One protocol message (or control message) maps to one UDP datagram whose
payload is canonical JSON: ``{"t": <type name>, "v": <wire version>,
<field>: <value>, ...}`` with sorted keys and minimal separators, e.g.
``{"monitor":5,"sender":4,"t":"Notify","target":6,"v":1}``.

**Compiled at registration.**  :func:`register_wire_type` builds a
:class:`_WireSpec` holding everything that does not depend on the message:
the sorted key order as a ``%`` template with the keys, the type tag and
the version already rendered; one ``attrgetter`` over the fields in
template order; the field-name set a payload must match; and, per field in
constructor order, the exact parsed-JSON types it accepts.  :func:`encode`
is then *spec lookup -> getter -> render each value by exact type -> fill
the template*, and :func:`decode` is *parse -> compare key sets -> tuple-ise
arrays -> check types -> construct positionally*; nothing walks a dataclass
or sorts keys per datagram.  Types registered later (the control plane's,
third parties') are compiled the same way.

**Canonical JSON on the wire.**  The bytes are exactly what the stdlib
encoder produces for ``{"t": ..., "v": ..., **fields}`` with
``sort_keys=True, separators=(",", ":")`` and tuples as arrays.  That call
survives only in the test suite (``canonical_json``), as the oracle the
compiled encoder is held against for every registered type.
Output is pure ASCII — non-ASCII and control characters, lone surrogates
included, travel ``\\uXXXX``-escaped — so ``bytes_sent`` is the same on
every fabric.  The encoding is **round-trippable** (``decode(encode(m)) ==
m``; arrays come back as tuples, recursively), **deterministic** (same
message, same bytes, in every process), **finite** (NaN and the infinities
are rejected in both directions: nothing crosses the wire that a strict
JSON consumer downstream could not parse) and **versioned**: a datagram
with an unknown version or type, missing/extra fields or mistyped values
raises :class:`CodecError`, which transports treat as a counted drop,
never a crash.

**Paid once per payload.**  :func:`encode` hands back the last bytes when
given the same message object again (a NOTIFY goes to two peers), and
:func:`decode` memoises the payloads of at most :data:`MEMO_PAYLOAD_BYTES`
that decoded cleanly, :data:`MEMO_ENTRIES` of them at most (it starts afresh
when full; malformed bytes are never kept).  So receivers of equal bytes
share **one message object**: messages are immutable by contract
(:mod:`repro.core.messages`), and a handler must never mutate one.

All concrete protocol messages (:data:`repro.core.messages.MESSAGE_TYPES`)
are registered at import time; the control plane registers its own the same
way, so extensions can put new dataclasses on the wire without touching
this module.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import isfinite
from operator import attrgetter
from typing import Any, Callable, Dict, FrozenSet, Optional, Tuple, Type

from ..core.messages import MESSAGE_TYPES

__all__ = [
    "CodecError",
    "WIRE_VERSION",
    "MAX_DATAGRAM_BYTES",
    "register_wire_type",
    "wire_types",
    "encode",
    "decode",
]

#: Wire format version; bump when a registered type's fields change shape.
WIRE_VERSION = 1

#: Defensive ceiling on accepted datagram payloads (a full coarse view of a
#: million-node overlay is ~40 entries, far below this).
MAX_DATAGRAM_BYTES = 64 * 1024

#: The decode memo's bounds (see above): longest payload kept, entries.
MEMO_PAYLOAD_BYTES = 2048
MEMO_ENTRIES = 4096


class CodecError(ValueError):
    """A payload that cannot be decoded (or a value that cannot be encoded)."""


# -- value rendering (encode side) -------------------------------------------


def _render_float(value: float) -> str:
    if not isfinite(value):
        raise CodecError(f"cannot encode non-finite float on the wire: {value!r}")
    return float.__repr__(value)


def _render_sequence(value: Any) -> str:
    return "[" + ",".join([_RENDERERS[type(item)](item) for item in value]) + "]"


def _unencodable(value: Any) -> str:
    raise CodecError(
        f"cannot encode value of type {type(value).__name__} on the wire: "
        f"{value!r}"
    )


class _Renderers(dict):
    """Exact value type -> what the JSON encoder would emit for the value.

    A subclass (an ``IntEnum``, a ``str`` subclass, a namedtuple) resolves
    on first sight to the renderer of its JSON base type — which is how the
    JSON encoder treats it — and anything else to :func:`_unencodable`.
    """

    def __missing__(self, cls: type) -> Callable[[Any], str]:
        for base, renderer in (
            (str, encode_basestring_ascii),
            (int, int.__repr__),  # not repr(): an IntEnum renders as its value
            (float, _render_float),
            (tuple, _render_sequence),
            (list, _render_sequence),
        ):
            if issubclass(cls, base):
                break
        else:
            renderer = _unencodable
        self[cls] = renderer
        return renderer


_RENDERERS = _Renderers(
    {
        int: repr,
        str: encode_basestring_ascii,
        float: _render_float,
        bool: {True: "true", False: "false"}.__getitem__,
        type(None): lambda value: "null",
        tuple: _render_sequence,
        list: _render_sequence,
    }
)


# -- field plans (decode side) -----------------------------------------------


def _accepted_types(annotation: Any) -> Optional[FrozenSet[type]]:
    """The exact parsed-JSON types one field annotation admits.

    Wire safety needs only coarse shape checks: ints where the protocol
    expects node ids/sequence numbers, numbers where it expects floats,
    tuples where it expects sequences.  Values reach the check straight
    from the JSON parser (arrays already tuples), so exact types suffice —
    ``bool`` never passes for ``int``.  ``None`` means anything is accepted
    (the constructor remains the last line of defence).
    """
    origin = typing.get_origin(annotation)
    if origin is typing.Union:
        members = [_accepted_types(arg) for arg in typing.get_args(annotation)]
        if None in members:
            return None
        return frozenset().union(*members)
    if annotation is type(None) or annotation in (bool, int, str):
        return frozenset((annotation,))
    if annotation is float:
        return frozenset((int, float))
    if origin is tuple or annotation is tuple:
        return frozenset((tuple,))
    return None


def _to_native(value: list) -> tuple:
    """JSON arrays come back as tuples so decoded messages compare equal."""
    kinds = set(map(type, value))
    if list not in kinds:
        return tuple(value)
    if len(kinds) == 1 and list not in map(type, chain.from_iterable(value)):
        # A table — rows of scalars, like a directory or a status reply's
        # (monitor, time) pairs — converts without a Python call per row.
        return tuple(map(tuple, value))
    return tuple(
        [_to_native(item) if type(item) is list else item for item in value]
    )


class _WireSpec:
    """Everything about one registered dataclass that no message changes."""

    __slots__ = ("cls", "names", "template", "getter", "plan", "positional")

    def __init__(self, cls: Type) -> None:
        self.cls = cls
        try:
            hints = typing.get_type_hints(cls)
        except Exception:  # unresolvable forward refs: skip validation
            hints = {}
        fields = dataclasses.fields(cls)
        self.names = frozenset(f.name for f in fields)
        # Encode side.  Canonical key order, sorted once; ``t`` and ``v``
        # are rendered into the template, every field leaves a ``%s`` slot
        # that ``getter`` fills in the same order.
        rendered = {
            "t": encode_basestring_ascii(cls.__name__),
            "v": int.__repr__(WIRE_VERSION),
        }
        members = []
        for key in sorted(self.names | rendered.keys()):
            literal = encode_basestring_ascii(key) + ":" + rendered.get(key, "")
            members.append(
                literal.replace("%", "%%") + ("%s" if key in self.names else "")
            )
        self.template = "{" + ",".join(members) + "}"
        slots = sorted(self.names)
        if len(slots) > 1:
            self.getter = attrgetter(*slots)
        else:  # attrgetter needs a name, and returns a scalar for just one
            self.getter = lambda message: tuple(
                [getattr(message, name) for name in slots]
            )
        # Decode side: ``(name, accepted types)`` in constructor order.
        self.plan = tuple(
            (f.name, _accepted_types(hints.get(f.name, Any))) for f in fields
        )
        self.positional = all(f.init and not f.kw_only for f in fields)


#: Wire tag -> spec (decode) and class -> spec (encode).
_REGISTRY: Dict[str, _WireSpec] = {}
_SPEC_OF: Dict[type, _WireSpec] = {}
#: Payload -> the message it decoded to (see :func:`decode`).
_memo: Dict[bytes, Any] = {}


def register_wire_type(cls: Type) -> Type:
    """Register a dataclass for wire transport (usable as a decorator).

    The type name is the wire tag, so names must be unique across every
    registered namespace (protocol and control planes share one wire).
    """
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"wire types must be dataclasses, got {cls!r}")
    name = cls.__name__
    existing = _REGISTRY.get(name)
    if existing is not None and existing.cls is not cls:
        raise ValueError(f"wire type name {name!r} already registered")
    clashes = {f.name for f in dataclasses.fields(cls)} & {"t", "v"}
    if clashes:
        # A field named 't' or 'v' would overwrite the envelope's type tag
        # or version, producing datagrams that can never decode.
        raise ValueError(
            f"wire type {name!r} has reserved field name(s): "
            f"{', '.join(sorted(clashes))}"
        )
    _REGISTRY[name] = _SPEC_OF[cls] = _WireSpec(cls)
    _memo.clear()  # memoised payloads decode against the registry as it is
    return cls


def wire_types() -> Tuple[Type, ...]:
    """Every registered wire type, sorted by tag name."""
    return tuple(_REGISTRY[name].cls for name in sorted(_REGISTRY))


#: The last encode's ``(message, bytes)``, rebound whole so a reader never
#: sees one's message with another's bytes; holding the message pins its id.
_last_encoded: Tuple[Any, bytes] = (object(), b"")


def encode(message: Any) -> bytes:
    """One registered message -> one canonical-JSON datagram payload."""
    global _last_encoded
    last = _last_encoded
    if message is last[0]:
        return last[1]
    try:
        spec = _SPEC_OF[type(message)]
    except KeyError:
        raise CodecError(
            f"{type(message).__name__} is not a registered wire type"
        ) from None
    values = spec.getter(message)
    for value in values:
        if value.__class__ is not int:  # an exact int renders as %s does
            values = tuple([_RENDERERS[type(value)](value) for value in values])
            break
    data = (spec.template % values).encode("ascii")
    _last_encoded = (message, data)
    return data


def _reject_constant(name: str) -> Any:
    raise ValueError(f"non-finite number {name}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not isfinite(value):  # 1e999 parses to inf
        raise ValueError(f"non-finite number {text}")
    return value


_DECODER = json.JSONDecoder(
    parse_float=_finite_float, parse_constant=_reject_constant
)
_scan = _DECODER.scan_once


def decode(data: bytes) -> Any:
    """One datagram payload -> the message it encodes.

    Raises :class:`CodecError` on anything that is not a well-formed,
    current-version payload of a registered type with exactly the declared
    fields, each of a plausible shape.  Decoding never raises anything
    else, so transports can treat ``CodecError`` as the single "drop this
    datagram" signal.
    """
    message = _memo.get(data)
    if message is not None:
        return message
    try:
        message = _decode(data)
    except RecursionError:
        # A few KB of b"[[[[..." exhausts the parser's stack; that must be
        # a counted drop like any other hostile payload, not a loop error.
        raise CodecError("datagram nesting too deep") from None
    if len(data) <= MEMO_PAYLOAD_BYTES:
        if len(_memo) >= MEMO_ENTRIES:
            _memo.clear()
        _memo[data] = message
    return message


def _decode(data: bytes) -> Any:
    if len(data) > MAX_DATAGRAM_BYTES:
        raise CodecError(f"datagram too large ({len(data)} bytes)")
    try:
        text = data.decode("utf-8")
        try:
            payload, end = _scan(text, 0)
        except StopIteration:
            end = -1
        if end != len(text):
            # Surrounding whitespace is legal, anything else is not: the
            # full parser decides and words the error.
            payload = _DECODER.decode(text)
    except ValueError as error:
        # Bad UTF-8, malformed JSON, a non-finite number, or one of the
        # interpreter's own limits (an integer literal longer than
        # ``sys.get_int_max_str_digits()``): all plain ValueErrors.
        if data.startswith(b"\xef\xbb\xbf"):  # json.loads' own wording
            error = (
                "Unexpected UTF-8 BOM (decode using utf-8-sig): "
                "line 1 column 1 (char 0)"
            )
        raise CodecError(f"not a JSON datagram: {error}") from None
    if type(payload) is not dict:
        raise CodecError(f"payload must be an object, got {type(payload).__name__}")
    version = payload.pop("v", None)
    if type(version) is not int or version != WIRE_VERSION:
        raise CodecError(f"unsupported wire version {version!r}")
    tag = payload.pop("t", None)
    spec = _REGISTRY.get(tag) if type(tag) is str else None
    if spec is None:
        raise CodecError(f"unknown wire type {tag!r}")
    if payload.keys() != spec.names:
        missing = ", ".join(sorted(spec.names - payload.keys())) or "-"
        extra = ", ".join(sorted(payload.keys() - spec.names)) or "-"
        raise CodecError(
            f"{tag}: field mismatch (missing: {missing}; unexpected: {extra})"
        )
    values = []
    for name, accepted in spec.plan:
        value = payload[name]
        if type(value) is list:
            value = _to_native(value)
        if accepted is not None and type(value) not in accepted:
            raise CodecError(f"{tag}.{name}: implausible value {value!r}")
        values.append(value)
    try:
        if spec.positional:
            return spec.cls(*values)
        return spec.cls(**{name: v for (name, _), v in zip(spec.plan, values)})
    except (TypeError, ValueError) as error:
        raise CodecError(f"{tag}: {error}") from None


for _message_type in MESSAGE_TYPES:
    register_wire_type(_message_type)
del _message_type
