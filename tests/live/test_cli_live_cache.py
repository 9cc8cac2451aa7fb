"""CLI coverage for the ``avmon live`` and ``avmon cache`` subcommands."""

from __future__ import annotations

import io
import json

import pytest

from repro.api import Scenario, run
from repro.cli import build_parser, main
from repro.experiments.store import SummaryStore, config_key
from repro.live.supervisor import ProcessFabric


class TestLiveParser:
    def test_live_up_defaults(self):
        args = build_parser().parse_args(["live", "up"])
        assert args.command == "live"
        assert args.live_command == "up"
        assert args.nodes == 20
        assert args.duration == 30.0
        assert args.churn == "STAT"
        assert args.crash_after is None

    def test_live_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["live"])

    def test_live_up_accepts_gates_and_chaos(self):
        args = build_parser().parse_args(
            [
                "live", "up", "--nodes", "12", "--duration", "15",
                "--crash-after", "5", "--expect-discovery", "0.9",
                "--expect-recovery", "0.8", "--json",
            ]
        )
        assert args.nodes == 12
        assert args.crash_after == 5.0
        assert args.expect_discovery == 0.9
        assert args.json

    def test_live_operator_commands_share_control_port(self):
        for command in ("status", "chaos", "down"):
            args = build_parser().parse_args(["live", command])
            assert args.control_port == 7711
            assert args.host == "127.0.0.1"

    def test_live_up_rejects_bad_config(self, capsys, monkeypatch):
        async def spawn(_fabric, spec):
            raise AssertionError(f"node {spec.node} spawned")

        monkeypatch.setattr(ProcessFabric, "spawn", spawn)
        for argv in (
            ["--nodes", "1"],
            ["--nodes", "4", "--duration", "5", "--crash-after", "9"],
            # K may not exceed N: checked before anything boots.
            ["--nodes", "3", "--k", "9"],
            # Longer than the 1 s periods: checked before nodes spawn.
            ["--nodes", "3", "--ping-timeout", "2"],
        ):
            out = io.StringIO()
            assert main(["live", "up", *argv], out=out) == 2, argv
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: "), (argv, err)
            assert out.getvalue() == ""

    def test_live_up_rejects_unknown_churn(self):
        out = io.StringIO()
        assert (
            main(["live", "up", "--churn", "NO-SUCH-MODEL"], out=out) == 2
        )

    def test_live_operator_commands_report_missing_overlay(self):
        # Nothing listens on this port: a clear error, not a hang/traceback.
        out = io.StringIO()
        code = main(
            ["live", "status", "--control-port", "29999"], out=out
        )
        assert code == 1


class TestLiveUpEndToEnd:
    def test_small_overlay_with_crash_json_and_store(self, tmp_path):
        out = io.StringIO()
        code = main(
            [
                "live", "up", "--nodes", "5", "--duration", "8",
                "--protocol-period", "0.5", "--monitoring-period", "0.5",
                "--ping-timeout", "0.2", "--crash-after", "3",
                "--crash-downtime", "1.5", "--control-port", "-1",
                "--cache-dir", str(tmp_path), "--json",
            ],
            out=out,
        )
        assert code == 0
        payload = json.loads(out.getvalue())
        assert payload["summary"]["model"] == "LIVE"
        assert payload["summary"]["n"] == 5
        assert payload["crashes"] == 1
        assert payload["violations"] == 0
        # Tight run on a tiny overlay: demand progress, not perfection (the
        # strict >= 0.9 gates over real processes are CI's live-smoke job).
        assert payload["discovery_ratio"] > 0.0
        assert payload["store_path"] is not None

        # The persisted summary is visible to the cache tooling.
        ls_out = io.StringIO()
        assert main(["cache", "ls", "--cache-dir", str(tmp_path), "--json"], out=ls_out) == 0
        entries = json.loads(ls_out.getvalue())["entries"]
        assert len(entries) == 1
        assert entries[0]["model"] == "LIVE"


class TestCacheCli:
    @pytest.fixture()
    def populated_store(self, tmp_path):
        store = SummaryStore(tmp_path)
        scenario = Scenario(model="STAT", n=16, scale="test", seed=2)
        summary = run(scenario)
        store.save(config_key(scenario.to_config()), summary)
        return tmp_path, summary

    def test_cache_requires_directory(self, monkeypatch):
        monkeypatch.delenv("AVMON_CACHE_DIR", raising=False)
        out = io.StringIO()
        assert main(["cache", "ls"], out=out) == 2

    def test_cache_refuses_to_create_missing_directory(self, tmp_path):
        missing = tmp_path / "typo" / "store"
        out = io.StringIO()
        assert main(["cache", "ls", "--cache-dir", str(missing)], out=out) == 2
        assert not missing.exists()

    def test_cache_dir_from_environment(self, populated_store, monkeypatch):
        directory, _summary = populated_store
        monkeypatch.setenv("AVMON_CACHE_DIR", str(directory))
        out = io.StringIO()
        assert main(["cache", "stat"], out=out) == 0
        assert "entries: 1" in out.getvalue()

    def test_cache_ls_lists_summaries(self, populated_store):
        directory, summary = populated_store
        out = io.StringIO()
        assert main(["cache", "ls", "--cache-dir", str(directory)], out=out) == 0
        text = out.getvalue()
        assert "STAT" in text
        assert str(summary.n) in text

    def test_cache_ls_json_and_corrupt_entries(self, populated_store):
        directory, _summary = populated_store
        (directory / "deadbeef.json").write_text("{ corrupt")
        out = io.StringIO()
        assert main(["cache", "ls", "--cache-dir", str(directory), "--json"], out=out) == 0
        entries = json.loads(out.getvalue())["entries"]
        assert len(entries) == 2
        by_corrupt = {bool(entry.get("corrupt")): entry for entry in entries}
        assert by_corrupt[False]["model"] == "STAT"
        assert "model" not in by_corrupt[True]

    def test_cache_stat_counts_bytes(self, populated_store):
        directory, _summary = populated_store
        out = io.StringIO()
        assert main(["cache", "stat", "--cache-dir", str(directory), "--json"], out=out) == 0
        payload = json.loads(out.getvalue())
        assert payload["entries"] == 1
        assert payload["corrupt"] == 0
        assert payload["total_bytes"] > 0

    def test_cache_clear_removes_everything(self, populated_store):
        directory, _summary = populated_store
        out = io.StringIO()
        assert main(["cache", "clear", "--cache-dir", str(directory)], out=out) == 0
        assert "removed 1 entries" in out.getvalue()
        assert list(directory.glob("*.json")) == []

    def test_cache_ls_empty_store(self, tmp_path):
        out = io.StringIO()
        assert main(["cache", "ls", "--cache-dir", str(tmp_path)], out=out) == 0
        assert "empty store" in out.getvalue()

    def test_resolution_shared_with_sweep(self, tmp_path):
        """--cache-dir fills the same store sweep/run read (one directory)."""
        out = io.StringIO()
        assert (
            main(
                ["sweep", "--model", "STAT", "--n", "16", "--scale", "test",
                 "--cache-dir", str(tmp_path)],
                out=out,
            )
            == 0
        )
        stat_out = io.StringIO()
        assert main(["cache", "stat", "--cache-dir", str(tmp_path), "--json"], out=stat_out) == 0
        assert json.loads(stat_out.getvalue())["entries"] == 1
