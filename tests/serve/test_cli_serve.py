"""CLI coverage for ``avmon serve`` and ``avmon live query``."""

from __future__ import annotations

import io

from repro.cli import build_parser, main


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.control_port == 7711
        assert args.port == 8080
        assert args.bind == "127.0.0.1"
        assert args.cache_ttl == 2.0
        assert args.global_rate == 500.0
        assert args.max_concurrency == 64

    def test_live_up_serve_port(self):
        args = build_parser().parse_args(["live", "up", "--serve", "8080"])
        assert args.serve == 8080
        assert build_parser().parse_args(["live", "up"]).serve is None

    def test_live_query_arguments(self):
        args = build_parser().parse_args(
            ["live", "query", "3", "--l", "2", "--timeout", "5", "--json"]
        )
        assert args.live_command == "query"
        assert args.target == 3
        assert args.l == 2
        assert args.timeout == 5.0
        assert args.json
        assert args.control_port == 7711


class TestMissingOverlay:
    def test_serve_reports_missing_overlay(self):
        out = io.StringIO()
        assert main(["serve", "--control-port", "29998"], out=out) == 1

    def test_live_query_reports_missing_overlay(self):
        out = io.StringIO()
        code = main(
            ["live", "query", "3", "--control-port", "29998"], out=out
        )
        assert code == 1
