"""Property tests: the wire codec round-trips every message type.

ISSUE satellite: ``decode(encode(m)) == m`` for every type in
``core/messages.py`` (plus the whole control plane), and malformed
datagrams are rejected with :class:`~repro.live.codec.CodecError` — never
any other exception — so the transport can treat decoding as total.
"""

from __future__ import annotations

import dataclasses
import json
import typing

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.messages import MESSAGE_TYPES
from repro.live import codec
from repro.live.control import CONTROL_TYPES

ALL_TYPES = MESSAGE_TYPES + CONTROL_TYPES

node_ids = st.integers(min_value=0, max_value=(1 << 48) - 1)
wire_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)


def _strategy_for(annotation):
    origin = typing.get_origin(annotation)
    if origin is typing.Union:
        return st.one_of(
            *[_strategy_for(arg) for arg in typing.get_args(annotation)]
        )
    if annotation is type(None):
        return st.none()
    if annotation is bool:
        return st.booleans()
    if annotation is int:
        return node_ids
    if annotation is float:
        return wire_floats
    if annotation is str:
        return st.text(max_size=30)
    if origin is tuple:
        args = typing.get_args(annotation)
        if len(args) == 2 and args[1] is Ellipsis:
            return st.lists(_strategy_for(args[0]), max_size=6).map(tuple)
        return st.tuples(*[_strategy_for(arg) for arg in args])
    raise AssertionError(f"no strategy for annotation {annotation!r}")


def _instances(cls):
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    return st.builds(
        cls, **{f.name: _strategy_for(hints[f.name]) for f in fields}
    )


any_message = st.one_of(*[_instances(cls) for cls in ALL_TYPES])


@given(any_message)
def test_round_trip(message):
    data = codec.encode(message)
    decoded = codec.decode(data)
    assert decoded == message
    assert type(decoded) is type(message)


@given(any_message)
def test_encoding_is_deterministic(message):
    assert codec.encode(message) == codec.encode(message)


# -- the compiled encoder against its oracle ---------------------------------
#
# The codec renders datagrams from per-type templates compiled at
# registration; the format it must reproduce is still "canonical JSON":
# ``json.dumps`` of the field dict plus the ``t``/``v`` envelope, sorted
# keys, minimal separators.  That one-liner lives only here, as the oracle.

#: Quotes, backslashes, control characters, astral code points, ``%`` ...
wide_text = st.text(st.characters(exclude_categories=("Cs",)), max_size=20)
#: ... and lone surrogates (which JSON carries escaped, like the rest).
any_text = st.text(st.characters(exclude_categories=()), max_size=20)
wide_ints = st.one_of(
    st.integers(),
    st.sampled_from([0, -1, 2**63, 2**64 + 1, -(2**70), 10**40]),
)
finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e22, 1e-07, 1e16]),
)


def _wide_strategy_for(annotation, text, loose):
    """Values as wide as the wire allows; *loose* adds the off-annotation
    ones the encoder must still render like JSON (a bool in an int field,
    an int in a float field, a list for a tuple)."""
    origin = typing.get_origin(annotation)
    if annotation is bool:
        return st.booleans()
    if annotation is int:
        return st.one_of(wide_ints, st.booleans()) if loose else wide_ints
    if annotation is float:
        return st.one_of(finite_floats, wide_ints) if loose else finite_floats
    if annotation is str:
        return text
    assert origin is tuple, annotation
    args = typing.get_args(annotation)
    if len(args) == 2 and args[1] is Ellipsis:
        items = st.lists(_wide_strategy_for(args[0], text, loose), max_size=5)
        return st.one_of(items, items.map(tuple)) if loose else items.map(tuple)
    return st.tuples(*[_wide_strategy_for(arg, text, loose) for arg in args])


def _wide_instances(text, loose):
    def instances(cls):
        hints = typing.get_type_hints(cls)
        return st.builds(
            cls,
            **{
                f.name: _wide_strategy_for(hints[f.name], text, loose)
                for f in dataclasses.fields(cls)
            },
        )

    return st.one_of(*[instances(cls) for cls in codec.wire_types()])


def canonical_json(message) -> bytes:
    payload = {
        f.name: getattr(message, f.name) for f in dataclasses.fields(message)
    }
    payload["t"] = type(message).__name__
    payload["v"] = codec.WIRE_VERSION
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


@settings(max_examples=600)
@given(_wide_instances(any_text, loose=True))
def test_encoder_matches_the_canonical_json_oracle(message):
    data = codec.encode(message)
    assert data == canonical_json(message)
    assert data.isascii()


@settings(max_examples=600)
@given(_wide_instances(wide_text, loose=False))
def test_wide_values_round_trip(message):
    data = codec.encode(message)
    assert data == canonical_json(message)
    decoded = codec.decode(data)
    assert decoded == message
    assert type(decoded) is type(message)
    assert codec.encode(decoded) == data


@pytest.mark.parametrize("cls", ALL_TYPES, ids=lambda c: c.__name__)
def test_every_type_round_trips_at_defaults(cls):
    """Each type individually (the parametrized ids make failures obvious)."""
    fields = dataclasses.fields(cls)
    kwargs = {}
    for field in fields:
        if field.default is not dataclasses.MISSING:
            continue
        if field.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
            continue
        annotation = typing.get_type_hints(cls)[field.name]
        if annotation is int:
            kwargs[field.name] = 1
        elif annotation is float:
            kwargs[field.name] = 1.0
        elif annotation is str:
            kwargs[field.name] = "x"
        else:
            kwargs[field.name] = ()
    message = cls(**kwargs)
    assert codec.decode(codec.encode(message)) == message


@pytest.mark.parametrize(
    "payload",
    [
        b"",
        b"not json",
        b"\xff\xfe\x00",
        b"[1, 2, 3]",
        b'"Join"',
        b"{}",
        b'{"t": "Join"}',  # missing version
        b'{"t": "Join", "v": 999}',  # unknown version
        b'{"t": "NoSuchType", "v": 1}',
        b'{"t": "Join", "v": 1}',  # missing fields
        b'{"t": "Join", "v": 1, "sender": 1, "origin": 2, "weight": 3, "extra": 4}',
        b'{"t": "Join", "v": 1, "sender": "evil", "origin": 2, "weight": 3}',
        b'{"t": "Join", "v": 1, "sender": 1, "origin": 2, "weight": true}',
        b'{"t": "CvFetchReply", "v": 1, "sender": 1, "seq": 2, "view": 7}',
        b'{"t": 5, "v": 1}',
    ],
    ids=repr,
)
def test_malformed_payloads_raise_codec_error(payload):
    with pytest.raises(codec.CodecError):
        codec.decode(payload)


@given(st.binary(max_size=200))
def test_arbitrary_bytes_never_raise_anything_else(data):
    try:
        codec.decode(data)
    except codec.CodecError:
        pass  # the one permitted outcome for garbage


@given(st.dictionaries(st.text(max_size=8), st.integers(), max_size=6))
def test_arbitrary_json_objects_never_raise_anything_else(payload):
    data = json.dumps(payload).encode()
    try:
        codec.decode(data)
    except codec.CodecError:
        pass


def test_deeply_nested_payload_is_a_codec_error_not_recursion():
    depth = 2000
    for payload in (
        b"[" * depth + b"]" * depth,
        b'{"t":"CvFetchReply","v":1,"sender":1,"seq":1,"view":'
        + b"[" * depth
        + b"]" * depth
        + b"}",
    ):
        with pytest.raises(codec.CodecError):
            codec.decode(payload)


def test_oversized_datagram_rejected():
    huge = b'{"t": "Join", "v": 1, ' + b" " * codec.MAX_DATAGRAM_BYTES + b"}"
    with pytest.raises(codec.CodecError):
        codec.decode(huge)


def test_unregistered_type_cannot_encode():
    @dataclasses.dataclass(frozen=True)
    class Rogue:
        x: int = 0

    with pytest.raises(codec.CodecError):
        codec.encode(Rogue())


def test_reserved_envelope_field_names_rejected():
    @dataclasses.dataclass(frozen=True)
    class EnvelopeClash:
        t: int = 0

    with pytest.raises(ValueError, match="reserved"):
        codec.register_wire_type(EnvelopeClash)

    @dataclasses.dataclass(frozen=True)
    class VersionClash:
        v: int = 0

    with pytest.raises(ValueError, match="reserved"):
        codec.register_wire_type(VersionClash)


def test_duplicate_registration_name_rejected():
    @dataclasses.dataclass(frozen=True)
    class Join:  # clashes with the protocol's Join
        x: int = 0

    with pytest.raises(ValueError):
        codec.register_wire_type(Join)


def test_all_protocol_messages_registered():
    registered = set(codec.wire_types())
    for cls in ALL_TYPES:
        assert cls in registered


# -- damaged real datagrams (ISSUE satellite) --------------------------------
#
# The fault layer injects loss, duplication and delay deliberately, but a
# real network also *damages* payloads.  Whatever arrives — a truncated
# prefix, two datagrams concatenated by a buggy relay, a bit flip — must
# come out of decode() as either a well-formed message or a CodecError
# (i.e. a counted drop at the transport), never any other exception.


@given(any_message, st.data())
def test_truncated_datagrams_are_codec_errors(message, data):
    payload = codec.encode(message)
    cut = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
    # Every strict prefix is unbalanced JSON: always a clean rejection.
    with pytest.raises(codec.CodecError):
        codec.decode(payload[:cut])


@given(any_message)
def test_duplicated_payload_in_one_datagram_is_a_codec_error(message):
    payload = codec.encode(message)
    # Two messages fused into one datagram (relay bug, buffer reuse): the
    # concatenation is not valid JSON and must be a counted drop.
    with pytest.raises(codec.CodecError):
        codec.decode(payload + payload)
    # A *re-delivered* identical datagram, by contrast, simply decodes
    # again — duplication is the fault injector's job to produce and the
    # protocol's job to tolerate.
    assert codec.decode(payload) == codec.decode(payload)


@given(any_message, st.data())
def test_bit_flipped_datagrams_never_raise_anything_else(message, data):
    payload = bytearray(codec.encode(message))
    index = data.draw(
        st.integers(min_value=0, max_value=len(payload) - 1), label="byte"
    )
    bit = data.draw(st.integers(min_value=0, max_value=7), label="bit")
    payload[index] ^= 1 << bit
    try:
        decoded = codec.decode(bytes(payload))
    except codec.CodecError:
        return  # counted drop: the common case
    # A flip inside a value (e.g. one digit of an int) can still be a
    # well-formed payload; that must decode to a registered message, not
    # anything half-built.
    assert type(decoded) in codec.wire_types()


@given(any_message, st.data())
def test_damaged_datagrams_are_counted_drops_at_the_transport(message, data):
    """End to end: damage through DatagramEndpoint is malformed += 1."""
    from repro.live.transport import DatagramEndpoint

    payload = bytearray(codec.encode(message))
    mode = data.draw(st.sampled_from(["truncate", "duplicate", "bitflip"]))
    if mode == "truncate":
        cut = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
        damaged = bytes(payload[:cut])
    elif mode == "duplicate":
        damaged = bytes(payload) * 2
    else:
        index = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
        payload[index] ^= 1 << data.draw(st.integers(min_value=0, max_value=7))
        damaged = bytes(payload)
    received = []
    endpoint = DatagramEndpoint(lambda m, addr: received.append(m))
    endpoint._on_datagram(damaged, ("127.0.0.1", 1))
    assert endpoint.stats.datagrams_received == 1
    assert endpoint.stats.handler_errors == 0
    if endpoint.stats.malformed:
        assert received == []  # dropped, silently and exactly once
    else:
        # Damage that still parses must have delivered a real message.
        assert len(received) == 1
        assert type(received[0]) in codec.wire_types()
