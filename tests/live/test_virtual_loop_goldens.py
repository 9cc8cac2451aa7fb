"""Seeded memory-fabric bytes, pinned across commits.

Run-to-run equality (``test_memory_transport``, CI's ``cmp`` gates)
catches nondeterminism, but not a change that moves every run the same
way — a reordered timer tie, a different float for "now".  These digests
(SHA-256 of the summary JSON and of the JSONL journal) were generated on
the monkeypatched stock event loop that :class:`VirtualEventLoop`
replaced, so the loop is checked against its predecessor, not itself.

One table holds on every supported Python because every timed wait in the
live stack goes through :func:`repro.live.transport.wait_for`, which
schedules as 3.11's ``asyncio.wait_for`` does: the awaited coroutine runs
in a new Task, first stepped one ready-queue turn later.  3.12's stdlib
version awaits inline under ``asyncio.timeout()``; that one turn reorders
a boot ``Hello`` and moves 12 of the 14 configs.

A deliberate byte move regenerates the table — and says so in the
change log::

    PYTHONPATH=src python tests/live/test_virtual_loop_goldens.py

``--check`` instead compares every case against the table and exits 1 on
any mismatch.  The script path needs no pytest, so it also runs under an
interpreter that has only the standard library::

    PYTHONPATH=src python3.12 tests/live/test_virtual_loop_goldens.py --check
"""

from __future__ import annotations

import hashlib
import io
import sys

try:
    import pytest
except ImportError:  # run as a script by an interpreter without pytest
    pytest = None

from repro.live.faults import FaultPlan, Partition
from repro.live.memory_transport import MemoryOverlay
from repro.live.supervisor import LiveConfig
from repro.obs import Journal

SEEDS = (1, 7)


def _configs(seed: int):
    base = dict(
        nodes=12,
        duration=14.0,
        seed=seed,
        protocol_period=0.5,
        monitoring_period=0.5,
        ping_timeout=0.2,
        introducer_ttl=2.0,
        sample_interval=2.0,
        control_port=-1,
    )
    halves = (tuple(range(6)), tuple(range(6, 12)))
    return {
        "plain": (LiveConfig(**base), None),
        "lossy": (LiveConfig(fault="LOSSY", **base), None),
        "wan": (LiveConfig(fault="WAN", **base), None),
        "partition-heal": (
            LiveConfig(**base),
            FaultPlan(
                partitions=(Partition(groups=halves, start=3.0, end=7.0),),
                seed=seed,
            ),
        ),
        "crash": (LiveConfig(crash_after=5.0, crash_downtime=2.0, **base), None),
        "synth-churn": (
            LiveConfig(churn="SYNTH", churn_per_hour=600.0, **base),
            None,
        ),
        # Every datagram 50 ms late, no jitter: delivery instants collide
        # with each other and with the protocol timers, so heap tie order
        # decides the run.
        "ties": (LiveConfig(**base), FaultPlan(latency=0.05, seed=seed)),
    }


def digests(name: str, seed: int):
    config, plan = _configs(seed)[name]
    sink = io.StringIO()
    report = MemoryOverlay(config, plan=plan, journal=Journal(sink, retain=0)).run()
    return (
        hashlib.sha256(report.summary.to_json().encode()).hexdigest(),
        hashlib.sha256(sink.getvalue().encode()).hexdigest(),
    )


CASES = [(name, seed) for seed in SEEDS for name in _configs(seed)]

#: ``(summary sha256, journal sha256)`` per ``(config, seed)``.
GOLDEN = {
    ("plain", 1): (
        "bc20fba1818463351ca0c66d973063fc2b3130de3d0c2f34e3a927619cff2e48",
        "e5b6d8bde1ebd5907fae49aad37c64cdb530a200b93073d4bab640d6c8a841ac",
    ),
    ("lossy", 1): (
        "fad214e2c8db1d2a6f28eb84fca173e34330fe28b8c5185c91b326f7cd8fd217",
        "b1ff7dc707424a525a90bb8137f8a5b3717893f19221b1734b11617d8b6dd3ca",
    ),
    ("wan", 1): (
        "ea2c31bf398ef5a4e2af259b4606d799dccdd9b76f2dd80790c63e4a37242c5f",
        "4c697542c26d3e57a491df9ce8abcdade39ad85f9808035c55f8a3e3fbcb5110",
    ),
    ("partition-heal", 1): (
        "bc02026f9022a01e2b6b30880b21633df8ecf869554c512437a50245697ae344",
        "f005444d74c279e2604f04e8bb907c52802cf71761280af670e231aef3eb5eb7",
    ),
    ("crash", 1): (
        "267cc0396a3ad213343a78d1cf7b750112f380eca30d074fc067060014de8d9d",
        "3bca01637a9e2a882046bae7fdcf823bb5f38c9a057d2cdc80982dae2cc41a65",
    ),
    ("synth-churn", 1): (
        "5e02790d9aecb95a68693e0c6ef52484c3f34279ff29c9ebbaa405beb7823910",
        "6f1fc93a352e3e695bcbf60bc76e1af3210614a73d411b4de8deca22bce8e758",
    ),
    ("ties", 1): (
        "6884de6d758a13e22fc5bebae0c4be6570004a45a650a6476214ba547147c8e4",
        "aaf81f9973e29d8430b4bf3c00c4f5300511e2f5046bfb791f7e45456deb6f48",
    ),
    ("plain", 7): (
        "442da8a936fe89760f06b110f21c0a8e4f82c382aec713b936c5cfba93ce7772",
        "a60bd084844c784bfce16b5f14fa2a3b0d1939d10ae3efa2568ccd5cbb23331a",
    ),
    ("lossy", 7): (
        "ba60f3e0177aaf1565c55ef16f3555390990dc820c39135248ad2c046d80f093",
        "1227afeca107fed82a05f2988fb1b6bf12c556d51144c349562229b8aad688c5",
    ),
    ("wan", 7): (
        "5a7ff8aa624423fdac48056944064a84622d29be58bb7661dbb2f685cf06b1d1",
        "cf257b178725bf3bfcd3d9a83611d650c513734959ceb6f853b6320dae72c9af",
    ),
    ("partition-heal", 7): (
        "5d42712ac4284db2e960d00db0fce62f4c23f8f1131040ac110ac0f8809f9a42",
        "362e115b219e1c1b2a5396c65b1a9c25405c2c78b21eb121ef7574413b4d0d05",
    ),
    ("crash", 7): (
        "3204d12b1274be62daae965f3740cd05ad672026222c3a7156b5bafb8fcf8951",
        "cfffe14a11c18aab6aa2f6f3de06c2e95be72495e010cb41ef8cea93a131ab49",
    ),
    ("synth-churn", 7): (
        "45b36f60e3c9852e1cf5e92f1c20d7b99624520a50ce81eb2f7ad7774728c065",
        "045e253426d964a057e4433e691d56dc3f3b5cecd0704746c7ac5a958b2a1339",
    ),
    ("ties", 7): (
        "4c83a251c3c1be79219ee8de8b17b9c06d6f5343963fd813e52734b1b1c056ef",
        "e52b029b01d8e020fc0a0ba323a446f668e9802787b63bfc398ff8a1accf4a27",
    ),
}


def test_seeded_memory_fabric_bytes_match_the_pinned_digests(name, seed):
    summary, journal = digests(name, seed)
    assert summary == GOLDEN[name, seed][0], "summary JSON bytes moved"
    assert journal == GOLDEN[name, seed][1], "journal bytes moved"


if pytest is not None:
    test_seeded_memory_fabric_bytes_match_the_pinned_digests = (
        pytest.mark.parametrize("name,seed", CASES)(
            test_seeded_memory_fabric_bytes_match_the_pinned_digests
        )
    )


def check() -> int:
    """Compare every case with the table; 1 on a miss."""
    failed = 0
    for name, seed in CASES:
        ok = digests(name, seed) == GOLDEN[name, seed]
        failed += not ok
        print(f"{'ok' if ok else 'MISMATCH':8} {name} seed={seed}")
    print(f"{len(CASES) - failed}/{len(CASES)} match")
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    print("GOLDEN = {")
    for name, seed in CASES:
        summary, journal = digests(name, seed)
        print(f'    ("{name}", {seed}): (\n'
              f'        "{summary}",\n'
              f'        "{journal}",\n'
              "    ),")
    print("}")
