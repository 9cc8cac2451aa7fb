"""CLI surface: sweep --journal/--obs-snapshot and the `avmon obs` commands."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.obs import Journal, read_events


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def _sweep(tmp_path, name):
    journal = tmp_path / f"{name}.jsonl"
    snapshot = tmp_path / f"{name}-snapshot.json"
    code, _ = run_cli(
        [
            "sweep",
            "--scale",
            "test",
            "--n",
            "16,24",
            "--seeds",
            "1",
            "--backend",
            "fleet",
            "--backend-param",
            "workers=2",
            "--cache-dir",
            str(tmp_path / f"{name}-store"),
            "--journal",
            str(journal),
            "--obs-snapshot",
            str(snapshot),
        ]
    )
    assert code == 0
    return journal, snapshot


class TestSweepObsFlags:
    def test_journal_and_snapshot_written(self, tmp_path):
        journal, snapshot = _sweep(tmp_path, "run")
        events = read_events(journal)
        names = [e["event"] for e in events]
        assert names[0] == "sweep.start"
        assert names[-1] == "sweep.end"
        assert "fleet.lease_granted" in names
        assert "fleet.cell_done" in names
        snap = json.loads(snapshot.read_text())
        assert snap["fleet.cell_done"] == 2
        # Fleet workers persist cells themselves, so the parent-side store
        # records no writes or hits — but the gauges are present.
        assert snap["sweep.cache.computed"] == 0
        assert snap["sweep.cache.hits"] == 0
        # The workers really persisted: the journal says so per cell.
        done = [e for e in events if e["event"] == "fleet.cell_done"]
        assert all(e["persisted"] for e in done)

    def test_snapshot_byte_equal_across_identical_runs(self, tmp_path):
        _, first = _sweep(tmp_path, "one")
        _, second = _sweep(tmp_path, "two")
        assert first.read_bytes() == second.read_bytes()

    def test_snapshot_unwritable_is_error(self, tmp_path):
        code, _ = run_cli(
            [
                "sweep",
                "--scale",
                "test",
                "--n",
                "16",
                "--seeds",
                "1",
                "--obs-snapshot",
                str(tmp_path / "no-such-dir" / "snap.json"),
            ]
        )
        assert code == 2


class TestObsTailSummary:
    @pytest.fixture()
    def journal_path(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        clock = iter(range(100)).__next__
        with Journal(path, clock=lambda: float(clock())) as journal:
            for index in range(5):
                journal.emit("fleet.lease_granted", cell=index)
            journal.emit("fleet.worker_death", worker=1, reason="sigkill")
            with journal.span("sweep"):
                pass
        return path

    def test_tail_renders_lines(self, journal_path):
        code, output = run_cli(["obs", "tail", str(journal_path), "-n", "3"])
        assert code == 0
        lines = output.strip().splitlines()
        assert len(lines) == 3
        assert "sweep.end" in lines[-1]

    def test_tail_event_filter_applies_before_limit(self, journal_path):
        code, output = run_cli(
            ["obs", "tail", str(journal_path), "-n", "3", "--event", "lease"]
        )
        assert code == 0
        lines = output.strip().splitlines()
        assert len(lines) == 3
        assert all("fleet.lease_granted" in line for line in lines)

    def test_tail_json(self, journal_path):
        code, output = run_cli(
            ["obs", "tail", str(journal_path), "-n", "1", "--json"]
        )
        assert code == 0
        record = json.loads(output.strip())
        assert record["event"] == "sweep.end"

    def test_summary_human(self, journal_path):
        code, output = run_cli(["obs", "summary", str(journal_path)])
        assert code == 0
        assert "events: 8" in output
        assert "fleet.lease_granted" in output
        assert "spans:" in output

    def test_summary_json(self, journal_path):
        code, output = run_cli(["obs", "summary", str(journal_path), "--json"])
        assert code == 0
        summary = json.loads(output)
        assert summary["by_event"]["fleet.lease_granted"] == 5
        assert summary["spans"]["sweep"]["count"] == 1

    def test_missing_journal_is_error(self, tmp_path):
        code, _ = run_cli(["obs", "summary", str(tmp_path / "nope.jsonl")])
        assert code == 1


@pytest.fixture()
def store_daemon(tmp_path):
    """A real store daemon on an ephemeral localhost port."""
    from repro.experiments.store_backends import FilesystemBackend
    from repro.experiments.store_server import StoreDaemonThread

    with StoreDaemonThread(FilesystemBackend(tmp_path)) as daemon:
        yield daemon.url


@pytest.mark.udp
class TestObsScrape:
    def test_scrape_json(self, store_daemon):
        code, output = run_cli(["obs", "scrape", f"{store_daemon}/metrics"])
        assert code == 0
        payload = json.loads(output)
        assert "deterministic" in payload
        assert payload["deterministic"]["store.requests"] >= 1

    def test_scrape_prometheus(self, store_daemon):
        code, output = run_cli(
            ["obs", "scrape", f"{store_daemon}/metrics", "--format", "prometheus"]
        )
        assert code == 0
        assert "# TYPE avmon_store_requests counter" in output

    def test_scrape_unreachable_is_error(self):
        code, _ = run_cli(
            ["obs", "scrape", "http://127.0.0.1:1/metrics", "--timeout", "0.2"]
        )
        assert code == 1
