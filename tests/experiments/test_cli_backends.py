"""CLI tests for the execution-backend and shared-store surface."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import build_parser, main

SWEEP = ["sweep", "--model", "STAT", "--n", "16,24", "--seeds", "2",
         "--scale", "test", "--json"]


@pytest.fixture(scope="module")
def serial_payload():
    out = io.StringIO()
    assert main(SWEEP, out=out) == 0
    return out.getvalue()


class TestSweepBackendFlag:
    def test_pool_backend_byte_identical(self, serial_payload, capsys):
        out = io.StringIO()
        assert main(SWEEP + ["--backend", "pool", "--jobs", "2"], out=out) == 0
        assert out.getvalue() == serial_payload

    def test_fleet_backend_byte_identical_with_chaos(
        self, serial_payload, tmp_path, capsys
    ):
        out = io.StringIO()
        argv = SWEEP + [
            "--backend", "fleet", "--jobs", "2",
            "--backend-param", "chaos_kill_after_starts=1",
            "--backend-param", "retry_backoff=0.05",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv, out=out) == 0
        assert out.getvalue() == serial_payload
        err = capsys.readouterr().err
        assert "fleet: workers=2" in err
        assert "deaths=1" in err

    def test_fleet_resumes_from_cache(self, serial_payload, tmp_path, capsys):
        argv = SWEEP + ["--cache-dir", str(tmp_path)]
        assert main(argv, out=io.StringIO()) == 0
        capsys.readouterr()
        out = io.StringIO()
        assert main(argv + ["--backend", "fleet", "--jobs", "2"], out=out) == 0
        assert out.getvalue() == serial_payload
        err = capsys.readouterr().err
        assert "hits=4 computed=0" in err
        assert "spawned=0" in err  # nothing left for the fleet to do

    def test_unknown_backend_is_a_clean_error(self, capsys):
        assert main(SWEEP + ["--backend", "warp-drive"], out=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert "backend" in err and "warp-drive" in err

    def test_bad_backend_param_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(SWEEP + ["--backend-param", "nonsense"])

    def test_list_json_includes_backend_kind(self):
        out = io.StringIO()
        assert main(["list", "--json"], out=out) == 0
        components = json.loads(out.getvalue())["components"]
        assert {"FLEET", "POOL", "SERIAL"} <= set(components["backend"])

    def test_run_accepts_backend(self, capsys):
        out = io.StringIO()
        argv = ["run", "fig3", "--scale", "test", "--jobs", "2",
                "--backend", "pool"]
        assert main(argv, out=out) == 0
        assert "Figure 3" in out.getvalue()


class TestStoreCommandErrors:
    def test_serve_requires_directory(self, capsys, monkeypatch):
        monkeypatch.delenv("AVMON_CACHE_DIR", raising=False)
        assert main(["store", "serve"], out=io.StringIO()) == 2
        assert "store directory" in capsys.readouterr().err

    def test_serve_rejects_url_dir(self, capsys):
        argv = ["store", "serve", "--dir", "http://127.0.0.1:7780"]
        assert main(argv, out=io.StringIO()) == 2
        assert "not a URL" in capsys.readouterr().err

    def test_stat_requires_url(self, capsys, monkeypatch):
        monkeypatch.delenv("AVMON_CACHE_DIR", raising=False)
        assert main(["store", "stat"], out=io.StringIO()) == 2
        assert main(["store", "stat", "/tmp/not-a-url"], out=io.StringIO()) == 2

    def test_stat_unreachable_daemon(self, capsys):
        argv = ["store", "stat", "http://127.0.0.1:1"]
        assert main(argv, out=io.StringIO()) == 1
        assert "no store daemon" in capsys.readouterr().err


@pytest.fixture()
def store_daemon(tmp_path):
    from repro.experiments.store_backends import FilesystemBackend
    from repro.experiments.store_server import StoreDaemonThread

    with StoreDaemonThread(FilesystemBackend(tmp_path)) as daemon:
        yield daemon.url


@pytest.mark.udp
class TestSharedStoreThroughCli:
    def test_sweep_and_cache_against_daemon(
        self, store_daemon, serial_payload, capsys
    ):
        url = store_daemon
        out = io.StringIO()
        assert main(SWEEP + ["--cache-dir", url], out=out) == 0
        assert out.getvalue() == serial_payload
        err = capsys.readouterr().err
        assert "computed=4" in err

        # warm re-run over the wire: zero cells simulated
        out = io.StringIO()
        assert main(SWEEP + ["--cache-dir", url], out=out) == 0
        assert out.getvalue() == serial_payload
        assert "hits=4 computed=0" in capsys.readouterr().err

        # cache subcommands speak the same protocol
        out = io.StringIO()
        assert main(["cache", "stat", "--cache-dir", url, "--json"], out=out) == 0
        stat = json.loads(out.getvalue())
        assert stat["entries"] == 4
        assert stat["corrupt"] == 0

        out = io.StringIO()
        assert main(["cache", "ls", "--cache-dir", url, "--json"], out=out) == 0
        entries = json.loads(out.getvalue())["entries"]
        assert len(entries) == 4
        assert all(entry["model"] == "STAT" for entry in entries)

        out = io.StringIO()
        assert main(["store", "stat", url], out=out) == 0
        assert "entries: 4" in out.getvalue()

        out = io.StringIO()
        assert main(["cache", "clear", "--cache-dir", url], out=out) == 0
        assert "removed 4 entries" in out.getvalue()
        out = io.StringIO()
        assert main(["cache", "stat", "--cache-dir", url, "--json"], out=out) == 0
        assert json.loads(out.getvalue())["entries"] == 0
