"""Unit tests for the command-line interface."""

import argparse
import dataclasses
import io
import json
import socket

import pytest

from repro.cli import build_parser, main
from repro.live.config import LiveConfig
from repro.serve.service import ServeConfig


class TestCli:
    def test_list_shows_all_experiments(self):
        out = io.StringIO()
        assert main(["list"], out=out) == 0
        text = out.getvalue()
        assert "table1" in text
        assert "fig20" in text

    def test_run_table1(self):
        out = io.StringIO()
        assert main(["run", "table1", "--scale", "test"], out=out) == 0
        assert "Broadcast" in out.getvalue()

    def test_run_unknown_experiment(self):
        out = io.StringIO()
        assert main(["run", "fig99"], out=out) == 2

    def test_parser_rejects_bad_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig3", "--scale", "galactic"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_experiment_at_test_scale(self):
        out = io.StringIO()
        assert main(["run", "ext_baselines", "--scale", "test"], out=out) == 0
        assert "DHT" in out.getvalue()

    def test_run_with_jobs(self):
        out = io.StringIO()
        assert main(["run", "fig3", "--scale", "test", "--jobs", "2"], out=out) == 0
        assert "Figure 3" in out.getvalue()

    def test_list_json_includes_components(self):
        out = io.StringIO()
        assert main(["list", "--json"], out=out) == 0
        payload = json.loads(out.getvalue())
        ids = {entry["id"] for entry in payload["experiments"]}
        assert "fig3" in ids and "table1" in ids
        assert "SYNTH" in payload["components"]["churn"]
        assert "UNIFORM" in payload["components"]["latency"]


class TestCliSweep:
    def test_sweep_json_deterministic_across_jobs(self, capsys):
        argv = ["sweep", "--model", "STAT", "--n", "16,24", "--seeds", "2",
                "--scale", "test", "--json"]
        serial, parallel = io.StringIO(), io.StringIO()
        assert main(argv + ["--jobs", "1"], out=serial) == 0
        assert main(argv + ["--jobs", "2"], out=parallel) == 0
        capsys.readouterr()  # drop stderr progress lines
        assert serial.getvalue() == parallel.getvalue()
        payload = json.loads(serial.getvalue())
        assert len(payload["results"]) == 4
        aggregates = {(a["model"], a["n"]): a for a in payload["aggregates"]}
        assert set(aggregates) == {("STAT", 16), ("STAT", 24)}
        assert all(a["replications"] == 2 for a in aggregates.values())

    def test_sweep_text_output(self, capsys):
        out = io.StringIO()
        argv = ["sweep", "--model", "STAT", "--n", "16", "--scale", "test"]
        assert main(argv, out=out) == 0
        capsys.readouterr()
        assert "discovery(s)" in out.getvalue()
        assert "STAT" in out.getvalue()

    def test_sweep_unknown_model_errors(self, capsys):
        out = io.StringIO()
        argv = ["sweep", "--model", "WARP", "--n", "16", "--scale", "test"]
        assert main(argv, out=out) == 2
        captured = capsys.readouterr()
        assert "unknown churn component" in captured.err
        assert "SYNTH" in captured.err  # alternatives listed

    def test_sweep_rejects_bad_n_list(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--n", "ten,twenty"])


class TestCliCacheDir:
    ARGS = ["sweep", "--model", "STAT", "--n", "16,24", "--scale", "test", "--json"]

    @staticmethod
    def _refuse_simulation(monkeypatch):
        monkeypatch.setattr(
            "repro.experiments.backends.base.run_simulation",
            lambda config: pytest.fail("cached invocation must not simulate"),
        )

    def test_second_invocation_runs_zero_simulations(
        self, tmp_path, capsys, monkeypatch
    ):
        argv = self.ARGS + ["--cache-dir", str(tmp_path)]
        first = io.StringIO()
        assert main(argv, out=first) == 0
        assert "computed=2" in capsys.readouterr().err

        self._refuse_simulation(monkeypatch)
        second = io.StringIO()
        assert main(argv, out=second) == 0
        assert "hits=2 computed=0" in capsys.readouterr().err
        assert second.getvalue() == first.getvalue()

    def test_interrupted_sweep_resumes_byte_identical(self, tmp_path, capsys):
        """The acceptance scenario: a sweep killed partway (modelled as a
        first run covering only some cells) re-invoked with the full grid
        recomputes only the missing cells, and its JSON is byte-identical
        to an uninterrupted no-cache run."""
        partial = self.ARGS[:]
        partial[partial.index("16,24")] = "16"
        assert main(partial + ["--cache-dir", str(tmp_path)], out=io.StringIO()) == 0
        capsys.readouterr()

        resumed = io.StringIO()
        assert main(self.ARGS + ["--cache-dir", str(tmp_path)], out=resumed) == 0
        err = capsys.readouterr().err
        assert "hits=1 computed=1" in err
        assert "(cached)" in err  # progress marks resumed cells

        uninterrupted = io.StringIO()
        assert main(self.ARGS + ["--jobs", "1"], out=uninterrupted) == 0
        capsys.readouterr()
        assert resumed.getvalue() == uninterrupted.getvalue()

    def test_cache_dir_env_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("AVMON_CACHE_DIR", str(tmp_path))
        argv = ["sweep", "--model", "STAT", "--n", "16", "--scale", "test"]
        assert main(argv, out=io.StringIO()) == 0
        assert "computed=1" in capsys.readouterr().err
        assert len(list(tmp_path.glob("*.json"))) == 1

        self._refuse_simulation(monkeypatch)
        assert main(argv, out=io.StringIO()) == 0
        assert "hits=1 computed=0" in capsys.readouterr().err

    def test_unusable_cache_dir_is_a_clean_error(self, tmp_path, capsys):
        bad = str(tmp_path / "file")
        (tmp_path / "file").write_text("not a directory")
        for argv in (
            ["sweep", "--n", "16", "--scale", "test", "--cache-dir", f"{bad}/x"],
            ["run", "fig3", "--scale", "test", "--cache-dir", f"{bad}/x"],
        ):
            assert main(argv, out=io.StringIO()) == 2
            assert "cannot use cache dir" in capsys.readouterr().err

    def test_run_experiment_with_cache_dir(self, tmp_path, capsys, monkeypatch):
        argv = ["run", "fig3", "--scale", "test", "--cache-dir", str(tmp_path)]
        first = io.StringIO()
        assert main(argv, out=first) == 0
        err = capsys.readouterr().err
        assert "hits=0" in err
        assert len(list(tmp_path.glob("*.json"))) > 0

        self._refuse_simulation(monkeypatch)
        monkeypatch.setattr(
            "repro.experiments.cache.run_simulation",
            lambda config: pytest.fail("cached run must not simulate"),
        )
        second = io.StringIO()
        assert main(argv, out=second) == 0
        assert "computed=0" in capsys.readouterr().err

        def body(text):  # drop the wall-clock header line
            return [l for l in text.splitlines() if not l.startswith("== ")]

        assert body(second.getvalue()) == body(first.getvalue())


def _parser_tree(parser, path=()):
    """Every ``(path, parser, is_leaf)`` of the CLI, depth first."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    yield path, parser, not groups
    for action in groups:
        for name, sub in action.choices.items():
            yield from _parser_tree(sub, path + (name,))


class TestCliRegistration:
    def test_every_leaf_resolves_to_a_handler(self):
        tree = list(_parser_tree(build_parser()))
        leaves = [(path, parser) for path, parser, leaf in tree if leaf]
        assert len(tree) == 25 and len(leaves) == 19
        for path, parser in leaves:
            assert callable(parser.get_default("handler")), path

    def test_every_help_page_exits_zero(self, capsys):
        for path, _parser, _leaf in _parser_tree(build_parser()):
            with pytest.raises(SystemExit) as exit_info:
                main([*path, "--help"])
            assert exit_info.value.code == 0, path
            usage = " ".join(("usage: avmon",) + path)
            assert capsys.readouterr().out.startswith(usage + " [-h]"), path

    def test_command_error_exits_2_with_its_message(self, capsys):
        assert main(["fleet", "worker", "--attach", "/tmp/not-a-url"]) == 2
        assert capsys.readouterr().err == (
            "error: --attach needs a store daemon URL (http://host:port)\n"
        )

    def test_unknown_backend_param_exits_2_with_one_error_line(self, capsys):
        for backend in ("serial", "pool"):
            argv = ["sweep", "--n", "16", "--scale", "test", "--backend", backend]
            assert main(argv + ["--backend-param", "bogus=1"]) == 2
            err = capsys.readouterr().err
            assert err.startswith(
                f"error: bad --backend-param for backend {backend!r}: "
            )
            assert "bogus" in err or "takes no arguments" in err
            assert err.count("\n") == 1

    def test_unreachable_daemon_exits_1(self, capsys):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            url = f"http://127.0.0.1:{probe.getsockname()[1]}"
        assert main(["store", "stat", url]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: no store daemon at {url}: ")
        assert "unreachable" in err and err.count("\n") == 1


def _flagged(cls):
    """``(field, flag)`` for every field of *cls* that is a CLI flag."""
    for spec in dataclasses.fields(cls):
        if "help" in spec.metadata:
            flag = "--" + spec.name.replace("_", "-")
            yield spec, spec.metadata.get("flag", flag)


#: Non-default values the registry accepts, for str fields that name a
#: component; any other str field gets its own name.
_COMPONENTS = {"churn": "SYNTH", "fault": "WAN"}


def _non_default_argv(cls):
    """``(argv, values)`` setting every flag of *cls* off its default at once
    (some fields are only valid together: --kill-introducer-after needs
    --introducers 2)."""
    argv, values = [], {}
    for spec, flag in _flagged(cls):
        if isinstance(spec.default, str):
            value = _COMPONENTS.get(spec.name, spec.name)
        elif spec.default is None:
            value = 3
        else:
            value = spec.default + 1
        assert value != spec.default, spec.name
        argv += [flag, str(value)]
        values[spec.name] = value
    return argv, values


class TestConfigFlags:
    """`live up` and `serve` take every flag from a config field, so the
    CLI and the library share one default per setting."""

    @staticmethod
    def _live_up(monkeypatch, argv):
        captured = []

        def run_live(config, **_kwargs):
            captured.append(config)
            raise RuntimeError("captured")

        monkeypatch.delenv("AVMON_CACHE_DIR", raising=False)
        monkeypatch.setattr("repro.live.supervisor.run_live", run_live)
        assert main(["live", "up", *argv], out=io.StringIO()) == 1
        (config,) = captured
        return config

    @staticmethod
    def _serve(monkeypatch, argv):
        from repro.live.control import OverlayInfoReply

        captured = []

        class Backend:
            def __init__(self, query_timeout):
                self.query_timeout = query_timeout

            async def start(self):
                pass

            async def close(self):
                pass

        def service(backend, config):
            captured.append((backend, config))
            raise RuntimeError("captured")

        info = OverlayInfoReply(nodes=8, k=3, introducer_port=7000)
        monkeypatch.setattr(
            "repro.live.supervisor.control_call", lambda *_a, **_k: info
        )
        monkeypatch.setattr(
            "repro.cli._observer_backend",
            lambda _info, *, host, query_timeout: Backend(query_timeout),
        )
        monkeypatch.setattr("repro.serve.service.AvailabilityService", service)
        with pytest.raises(RuntimeError, match="captured"):
            main(["serve", *argv], out=io.StringIO())
        ((backend, config),) = captured
        assert backend.query_timeout == config.query_timeout
        return config

    def test_every_flag_is_a_config_field(self):
        assert len(list(_flagged(LiveConfig))) == 18
        assert len(list(_flagged(ServeConfig))) == 7
        parsers = {path: p for path, p, _leaf in _parser_tree(build_parser())}
        for path, cls in ((("live", "up"), LiveConfig), (("serve",), ServeConfig)):
            actions = parsers[path]._actions
            options = {o for action in actions for o in action.option_strings}
            for _spec, flag in _flagged(cls):
                assert flag in options, (path, flag)

    def test_live_up_defaults_are_the_configs(self, monkeypatch):
        # The one override: operator commands find the overlay on 7711.
        assert self._live_up(monkeypatch, []) == LiveConfig(control_port=7711)

    def test_serve_defaults_are_the_configs(self, monkeypatch):
        assert self._serve(monkeypatch, []) == ServeConfig()

    def test_every_live_up_flag_reaches_its_field(self, monkeypatch):
        argv, values = _non_default_argv(LiveConfig)
        assert self._live_up(monkeypatch, argv) == LiveConfig(**values)

    def test_every_serve_flag_reaches_its_field(self, monkeypatch):
        argv, values = _non_default_argv(ServeConfig)
        assert self._serve(monkeypatch, argv) == ServeConfig(**values)
