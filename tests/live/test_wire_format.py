"""The wire format, pinned and attacked.

* **Golden bytes** — one fixed instance of every registered wire type
  with the exact datagram the codec must produce for it.  The literals
  were generated on the commit *before* the codec was compiled (PR 15's
  parent), so a drift in key order, separators, escaping or number
  rendering fails here by type name instead of surfacing as a
  mixed-version overlay that cannot talk to itself.
* **Hostile matrix** — truncations, every single-field deletion, addition
  and retyping of a valid payload, deep nesting, BOM, bad UTF-8, oversize:
  each is a :class:`~repro.live.codec.CodecError` and nothing else.
* **Regressions** — payloads that used to escape as a plain ``ValueError``
  (an integer literal past the interpreter's digit limit) or cross the
  wire although no strict JSON consumer could read them (NaN, infinities)
  or be taken for version 1 by value (``true``, ``1.0``).
"""

from __future__ import annotations

import dataclasses
import json
import math
from enum import IntEnum

import pytest

from repro.core.messages import (
    MESSAGE_TYPES,
    CvFetchReply,
    CvFetchRequest,
    CvPing,
    CvPong,
    HistoryReply,
    HistoryRequest,
    Join,
    MonitorPing,
    MonitorPong,
    Notify,
    Pr2Refresh,
    ReportReply,
    ReportRequest,
)
from repro.live import codec
from repro.live.control import (
    CONTROL_TYPES,
    ChaosReply,
    ChaosRequest,
    DirectoryReply,
    DirectoryRequest,
    DownAck,
    DownRequest,
    FaultReply,
    FaultRequest,
    FaultUpdate,
    Goodbye,
    Heartbeat,
    Hello,
    HelloAck,
    IntroducerSync,
    OverlayInfoReply,
    OverlayInfoRequest,
    OverlayStatusReply,
    OverlayStatusRequest,
    ServeStatusReply,
    ServeStatusRequest,
    StatusReply,
    StatusRequest,
)

from test_codec_properties import canonical_json

# -- golden bytes ------------------------------------------------------------

GOLDEN = [
    (
        Join(sender=1, origin=2, weight=3),
        b'{"origin":2,"sender":1,"t":"Join","v":1,"weight":3}',
    ),
    (
        CvPing(sender=7, seq=41),
        b'{"sender":7,"seq":41,"t":"CvPing","v":1}',
    ),
    (
        CvPong(sender=8, seq=41),
        b'{"sender":8,"seq":41,"t":"CvPong","v":1}',
    ),
    (
        CvFetchRequest(sender=3, seq=9),
        b'{"sender":3,"seq":9,"t":"CvFetchRequest","v":1}',
    ),
    (
        CvFetchReply(sender=3, seq=9, view=(4, 5, 281474976710655)),
        b'{"sender":3,"seq":9,"t":"CvFetchReply","v":1,"view":[4,5,281474976710655]}',
    ),
    (
        Notify(sender=4, monitor=5, target=6),
        b'{"monitor":5,"sender":4,"t":"Notify","target":6,"v":1}',
    ),
    (
        MonitorPing(sender=5, seq=1000),
        b'{"sender":5,"seq":1000,"t":"MonitorPing","v":1}',
    ),
    (
        MonitorPong(sender=6, seq=1000),
        b'{"sender":6,"seq":1000,"t":"MonitorPong","v":1}',
    ),
    (
        Pr2Refresh(sender=12),
        b'{"sender":12,"t":"Pr2Refresh","v":1}',
    ),
    (
        ReportRequest(sender=99, subject=2, min_monitors=3),
        b'{"min_monitors":3,"sender":99,"subject":2,"t":"ReportRequest","v":1}',
    ),
    (
        ReportReply(sender=2, subject=2, monitors=(10, 11, 12)),
        b'{"monitors":[10,11,12],"sender":2,"subject":2,"t":"ReportReply","v":1}',
    ),
    (
        HistoryRequest(sender=99, subject=2),
        b'{"sender":99,"subject":2,"t":"HistoryRequest","v":1}',
    ),
    (
        HistoryReply(sender=10, subject=2, availability=0.875),
        b'{"availability":0.875,"sender":10,"subject":2,"t":"HistoryReply","v":1}',
    ),
    (
        Hello(node=3, port=40003, host="127.0.0.1"),
        b'{"host":"127.0.0.1","node":3,"port":40003,"t":"Hello","v":1}',
    ),
    (
        HelloAck(epoch=1790000000.25, alive=12),
        b'{"alive":12,"epoch":1790000000.25,"t":"HelloAck","v":1}',
    ),
    (
        Heartbeat(node=3),
        b'{"node":3,"t":"Heartbeat","v":1}',
    ),
    (
        Goodbye(node=3),
        b'{"node":3,"t":"Goodbye","v":1}',
    ),
    (
        IntroducerSync(
            sender="introducer-1",
            epoch=1790000000.25,
            entries=((0, "127.0.0.1", 40000, 0.5), (1, "mem", 2, 1e-07)),
        ),
        b'{"entries":[[0,"127.0.0.1",40000,0.5],[1,"mem",2,1e-07]],"epoch":1790000000.25,"sender":"introducer-1","t":"IntroducerSync","v":1}',
    ),
    (
        DirectoryRequest(node=-1),
        b'{"node":-1,"t":"DirectoryRequest","v":1}',
    ),
    (
        DirectoryReply(
            entries=((0, "127.0.0.1", 40000), (1, "hôte", 40001), (2, "mem", 3))
        ),
        b'{"entries":[[0,"127.0.0.1",40000],[1,"h\\u00f4te",40001],[2,"mem",3]],"t":"DirectoryReply","v":1}',
    ),
    (
        StatusRequest(probe=7),
        b'{"probe":7,"t":"StatusRequest","v":1}',
    ),
    (
        StatusReply(
            node=2,
            probe=7,
            now=12.5,
            started_at=0.125,
            ps=((4, 1.5), (9, 1e22)),
            ts=(1, 3),
            cv=(),
            computations=1234,
            memory_entries=17,
            bytes_sent=18446744073709551616,
            cv_reseeds=1,
        ),
        b'{"bytes_sent":18446744073709551616,"computations":1234,"cv":[],"cv_reseeds":1,"datagrams_malformed":0,"datagrams_received":0,"datagrams_sent":0,"handler_errors":0,"histories_served":0,"introducer_failovers":0,"joins_throttled":0,"memory_entries":17,"node":2,"now":12.5,"probe":7,"ps":[[4,1.5],[9,1e+22]],"reports_served":0,"started_at":0.125,"t":"StatusReply","tick_errors":0,"ts":[1,3],"useless_pings":0,"v":1}',
    ),
    (
        OverlayStatusRequest(probe=1),
        b'{"probe":1,"t":"OverlayStatusRequest","v":1}',
    ),
    (
        OverlayStatusReply(
            probe=1, nodes=12, alive=11, elapsed=6.0, discovered_pairs=30,
            expected_pairs=36, crashes=1,
        ),
        b'{"alive":11,"crashes":1,"discovered_pairs":30,"elapsed":6.0,"expected_pairs":36,"nodes":12,"probe":1,"t":"OverlayStatusReply","v":1}',
    ),
    (
        ChaosRequest(kill=2, downtime=-0.0, kill_introducers=1),
        b'{"downtime":-0.0,"kill":2,"kill_introducers":1,"t":"ChaosRequest","v":1}',
    ),
    (
        ChaosReply(victims=(3, 8), introducers_killed=("introducer",)),
        b'{"introducers_killed":["introducer"],"t":"ChaosReply","v":1,"victims":[3,8]}',
    ),
    (
        FaultRequest(probe=2, plan='{"loss": 0.1}', merge=True),
        b'{"merge":true,"plan":"{\\"loss\\": 0.1}","probe":2,"t":"FaultRequest","v":1}',
    ),
    (
        FaultReply(probe=2, applied=12),
        b'{"applied":12,"probe":2,"t":"FaultReply","v":1}',
    ),
    (
        FaultUpdate(plan='{"latency": 0.03, "links": [], "note": "50% \\"wan\\"\\n"}'),
        b'{"plan":"{\\"latency\\": 0.03, \\"links\\": [], \\"note\\": \\"50% \\\\\\"wan\\\\\\"\\\\n\\"}","t":"FaultUpdate","v":1}',
    ),
    (
        OverlayInfoRequest(probe=3),
        b'{"probe":3,"t":"OverlayInfoRequest","v":1}',
    ),
    (
        OverlayInfoReply(
            probe=3, nodes=12, k=4, cvs=8, hash_algorithm="md5",
            introducer_host="127.0.0.1", introducer_port=7700, epoch=0.0,
        ),
        b'{"cvs":8,"epoch":0.0,"hash_algorithm":"md5","introducer_host":"127.0.0.1","introducer_port":7700,"k":4,"nodes":12,"probe":3,"t":"OverlayInfoReply","v":1}',
    ),
    (
        ServeStatusRequest(probe=4),
        b'{"probe":4,"t":"ServeStatusRequest","v":1}',
    ),
    (
        ServeStatusReply(probe=4, requests=1000, ok=990, client_errors=4,
                         server_errors=0, rate_limited=6, cache_hits=700,
                         cache_misses=290, monitors_verified=870,
                         monitors_rejected=0, queries_timed_out=2),
        b'{"cache_hits":700,"cache_misses":290,"client_errors":4,"monitors_rejected":0,"monitors_verified":870,"ok":990,"probe":4,"queries_timed_out":2,"rate_limited":6,"requests":1000,"server_errors":0,"t":"ServeStatusReply","v":1}',
    ),
    (
        DownRequest(probe=5),
        b'{"probe":5,"t":"DownRequest","v":1}',
    ),
    (
        DownAck(probe=5),
        b'{"probe":5,"t":"DownAck","v":1}',
    ),
]


def test_golden_covers_every_shipped_wire_type():
    assert {type(m) for m, _ in GOLDEN} == set(MESSAGE_TYPES + CONTROL_TYPES)


@pytest.mark.parametrize(
    "message, expected", GOLDEN, ids=lambda v: type(v).__name__
)
def test_golden_bytes(message, expected):
    assert codec.encode(message) == expected
    assert codec.decode(expected) == message


def test_subclassed_values_render_as_their_json_base_type():
    class Weight(IntEnum):
        HEAVY = 3

    class Host(str):
        pass

    assert (
        codec.encode(Join(sender=1, origin=2, weight=Weight.HEAVY))
        == b'{"origin":2,"sender":1,"t":"Join","v":1,"weight":3}'
    )
    assert (
        codec.encode(Hello(node=1, port=2, host=Host("h")))
        == b'{"host":"h","node":1,"port":2,"t":"Hello","v":1}'
    )
    # A list where a tuple is declared renders as the same array.
    assert codec.encode(
        CvFetchReply(sender=1, seq=2, view=[3, 4])
    ) == codec.encode(CvFetchReply(sender=1, seq=2, view=(3, 4)))


def _value_id(value):
    # A bare object's repr carries its address, which differs run to run.
    return "object()" if type(value) is object else repr(value)


@pytest.mark.parametrize(
    "value", [{"a": 1}, {1, 2}, b"bytes", object(), 1 + 2j], ids=_value_id
)
def test_unencodable_values_are_codec_errors(value):
    with pytest.raises(codec.CodecError, match="cannot encode value of type"):
        codec.encode(FaultUpdate(plan=value))
    with pytest.raises(codec.CodecError, match="cannot encode value of type"):
        codec.encode(CvFetchReply(sender=1, seq=1, view=(1, (2, value))))


# -- late and awkward registrations -------------------------------------------


@pytest.fixture()
def register():
    """``register_wire_type`` whose registrations end with the test."""
    registered = []

    def _register(cls):
        registered.append(codec.register_wire_type(cls))
        return cls

    yield _register
    for cls in registered:
        del codec._REGISTRY[cls.__name__], codec._SPEC_OF[cls]


def test_late_registered_types_are_compiled_like_the_built_in_ones(register):
    @dataclasses.dataclass(frozen=True)
    class _Empty:
        pass

    @dataclasses.dataclass(frozen=True)
    class _KeywordOnly:
        first: int
        second: str = dataclasses.field(default="x", kw_only=True)
        third: float = 0.0

    # '%' in a type tag must survive the encoder's '%' template.
    percent = dataclasses.make_dataclass(
        "_Per%cent%s", [("rate", str)], frozen=True
    )

    for cls in (_Empty, _KeywordOnly, percent):
        assert register(cls) is cls
        assert codec.register_wire_type(cls) is cls  # idempotent
    for message in (
        _Empty(),
        _KeywordOnly(1, second="%d", third=2.5),
        percent("100%"),
    ):
        data = codec.encode(message)
        assert data == canonical_json(message)
        assert codec.decode(data) == message


def test_duplicate_json_keys_keep_the_last_value():
    assert codec.decode(
        b'{"t":"Heartbeat","v":1,"node":3,"node":4}'
    ) == Heartbeat(node=4)


def test_surrounding_whitespace_is_still_accepted():
    assert codec.decode(b' \n{"node": 3, "t": "Heartbeat", "v": 1}\t ') == (
        Heartbeat(node=3)
    )


# -- hostile matrix ------------------------------------------------------------

_RETYPED = (None, True, 7, 0.5, "s", [], [1], {}, {"a": 1})


def _mutations(data: bytes):
    """Every single-field deletion, addition and retyping of one payload."""
    payload = json.loads(data)
    for key in payload:
        yield {k: v for k, v in payload.items() if k != key}
        for value in _RETYPED:
            if type(value) is not type(payload[key]):
                yield {**payload, key: value}
    for extra in ("extra", "", "T", "V"):
        yield {**payload, extra: 1}


@pytest.mark.parametrize(
    "message, data", GOLDEN, ids=lambda v: type(v).__name__
)
def test_single_field_mutations_decode_or_raise_codec_error(message, data):
    accepted = 0
    for mutated in _mutations(data):
        try:
            decoded = codec.decode(json.dumps(mutated).encode())
        except codec.CodecError:
            continue
        # The only mutations a type tolerates: an int where a float is
        # declared, and array/any-typed fields.
        assert type(decoded) is type(message)
        accepted += 1
    assert accepted <= 2 * len(dataclasses.fields(message))


@pytest.mark.parametrize("message, data", GOLDEN, ids=lambda v: type(v).__name__)
def test_every_truncation_is_a_codec_error(message, data):
    for cut in range(len(data)):
        with pytest.raises(codec.CodecError):
            codec.decode(data[:cut])


_VALID = b'{"node":3,"t":"Heartbeat","v":1}'


@pytest.mark.parametrize(
    "payload, message",
    [
        (b"\xef\xbb\xbf" + _VALID, "not a JSON datagram: Unexpected UTF-8 BOM"),
        (b"\xff\xfe" + _VALID, "not a JSON datagram: 'utf-8' codec can't decode"),
        (_VALID[:-1] + b"\x80}", "not a JSON datagram"),
        (b'{"node":"\xed\xa0\x80","t":"Heartbeat","v":1}', "not a JSON datagram"),
        (b"[" * 5000 + b"]" * 5000, "datagram nesting too deep"),
        (
            b'{"t":"CvFetchReply","v":1,"sender":1,"seq":1,"view":'
            + b"[" * 5000
            + b"]" * 5000
            + b"}",
            "datagram nesting too deep",
        ),
        (b" " * (codec.MAX_DATAGRAM_BYTES + 1), "datagram too large"),
        (_VALID + _VALID, "not a JSON datagram: Extra data"),
        (_VALID + b"x", "not a JSON datagram: Extra data"),
        (b"x" + _VALID, "not a JSON datagram: Expecting value"),
        (b"null", "payload must be an object, got NoneType"),
        (b"[]", "payload must be an object, got list"),
        (b'{"t":"Heartbeat","node":3}', "unsupported wire version None"),
        (b'{"t":"Heartbeat","v":2,"node":3}', "unsupported wire version 2"),
        (b'{"t":"Heartbeat","v":"1","node":3}', "unsupported wire version '1'"),
        (b'{"v":1,"node":3}', "unknown wire type None"),
        (b'{"t":["Heartbeat"],"v":1,"node":3}', "unknown wire type \\['Heartbeat'\\]"),
        (b'{"t":{},"v":1}', "unknown wire type {}"),
        (
            b'{"t":"Join","v":1,"sender":1,"x":2,"y":3}',
            "Join: field mismatch \\(missing: origin, weight; unexpected: x, y\\)",
        ),
        (b'{"t":"Heartbeat","v":1}', "missing: node; unexpected: -"),
        (
            b'{"t":"Heartbeat","v":1,"node":true}',
            "Heartbeat.node: implausible value True",
        ),
        (
            b'{"t":"CvFetchReply","v":1,"sender":1,"seq":1,"view":{"0":1}}',
            "CvFetchReply.view: implausible value {'0': 1}",
        ),
    ],
    ids=lambda v: None if isinstance(v, str) else repr(v[:24]),
)
def test_hostile_payloads_are_rejected_in_the_parents_words(payload, message):
    with pytest.raises(codec.CodecError, match=message):
        codec.decode(payload)


def test_constructor_rejections_are_codec_errors(register):
    @register
    @dataclasses.dataclass(frozen=True)
    class _Picky:
        share: float = 0.0

        def __post_init__(self):
            if not 0.0 <= self.share <= 1.0:
                raise ValueError(f"share must be in [0, 1], got {self.share}")

    with pytest.raises(codec.CodecError, match="_Picky: share must be in"):
        codec.decode(b'{"t":"_Picky","v":1,"share":2.0}')


# -- regressions ---------------------------------------------------------------

#: 5 KB, far below MAX_DATAGRAM_BYTES — but past the interpreter's default
#: 4300-digit limit on int literals, which the JSON parser reports as a
#: plain ValueError.
HUGE_INT_DATAGRAM = b'{"t":"CvPing","v":1,"seq":1,"sender":' + b"9" * 5000 + b"}"

FORGED_DATAGRAMS = [
    HUGE_INT_DATAGRAM,
    b'{"availability":NaN,"sender":10,"subject":2,"t":"HistoryReply","v":1}',
    b'{"availability":1e999,"sender":10,"subject":2,"t":"HistoryReply","v":1}',
    b'{"availability":-Infinity,"sender":10,"subject":2,"t":"HistoryReply","v":1}',
    b'{"entries":[[0,"h",1,Infinity]],"epoch":0.0,"sender":"","t":"IntroducerSync","v":1}',
    b'{"entries":[[0,"h",1,1e400]],"epoch":0.0,"sender":"","t":"IntroducerSync","v":1}',
    b'{"node":3,"t":"Heartbeat","v":true}',
    b'{"node":3,"t":"Heartbeat","v":1.0}',
]


@pytest.mark.parametrize("payload", FORGED_DATAGRAMS, ids=lambda p: repr(p[:40]))
def test_forged_datagrams_raise_codec_error_and_nothing_else(payload):
    with pytest.raises(codec.CodecError):
        codec.decode(payload)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
def test_non_finite_floats_cannot_be_encoded(value):
    with pytest.raises(codec.CodecError, match="non-finite"):
        codec.encode(HistoryReply(sender=1, subject=2, availability=value))
    with pytest.raises(codec.CodecError, match="non-finite"):
        codec.encode(StatusReply(ps=((1, value),)))
