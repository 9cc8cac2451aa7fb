"""Seed-grid regression: summary bytes and store addresses are pinned.

The engine rewrite and the integer-domain consistency condition must not
move a single byte of any default-config run: ``SimulationSummary.to_json``
is content-addressed on disk (PR 2's cache-key contract), so drift silently
invalidates or corrupts every store.  The golden values below were computed
on the pre-rewrite engine (commit 21f0be2) and re-verified against the
current one; if this test fails, the simulation's observable behaviour
changed — either fix the regression or consciously bump the summary schema
/ cache-key version and regenerate (see ROADMAP's cache-key stability
contract).
"""

import hashlib

import pytest

from repro.experiments.runner import run_simulation
from repro.experiments.scenarios import scenario
from repro.experiments.store import config_key, stable_key_hash

#: (model, n, seed) -> (store key, summary JSON SHA-256, processed events),
#: generated on the pre-PR5 engine.
GOLDEN = {
    ("STAT", 30, 1): (
        "aa6faf2ced81cf5666c6feb458db2590",
        "71bd5c195be53bdb4717a103cde68d65790222b1404242e296d62a80a930c9ab",
        95936,
    ),
    ("SYNTH", 30, 1): (
        "4c7d11695b98a3188d8ac3cb65894bf9",
        "aed793bd657e361c18adf537d1b1e79ac39e1a72c4757b6128e9ba34b487f459",
        86324,
    ),
    ("SYNTH", 30, 2): (
        "778d221210f16d5227767afe09e24d21",
        "b6a8f3127f22a2a9c25cfd0d2730b5938ebba1a02fde2f9d0e3493ec51893139",
        103597,
    ),
    ("SYNTH", 60, 1): (
        "f8c6a9333367e494955fd2a97bd6e970",
        "9b6a42eea9bc63cd3520e0ecc657d9c8507048fd4d672d6acacd03e7719e3512",
        165234,
    ),
    ("SYNTH-BD", 30, 5): (
        "1b662b7b35751ecf8ecad2c502576f96",
        "3e6605aa92b1b246d2420dfcfb62e8368dfcc48ba316a0f42458fe95265be18d",
        98569,
    ),
}


@pytest.mark.parametrize("model,n,seed", sorted(GOLDEN))
def test_store_key_is_stable(model, n, seed):
    config = scenario(model, n, "test", seed=seed)
    expected_key, _, _ = GOLDEN[(model, n, seed)]
    assert stable_key_hash(config_key(config)) == expected_key


@pytest.mark.parametrize("model,n,seed", sorted(GOLDEN))
def test_summary_bytes_are_stable(model, n, seed):
    config = scenario(model, n, "test", seed=seed)
    result = run_simulation(config)
    _, expected_sha, expected_events = GOLDEN[(model, n, seed)]
    assert result.events_processed == expected_events
    summary_json = result.summary().to_json()
    assert hashlib.sha256(summary_json.encode("utf-8")).hexdigest() == expected_sha


def test_summary_bytes_stable_across_repeated_runs():
    config = scenario("SYNTH", 30, "test", seed=7)
    first = run_simulation(config).summary().to_json()
    second = run_simulation(config).summary().to_json()
    assert first == second
