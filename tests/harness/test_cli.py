"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["run-mix"])
        assert args.scheme == "vantage-z4/52"
        assert args.system == "small"

    @pytest.mark.parametrize("command", ["run-mix", "submit", "fed-submit"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_epoch_cycles_must_be_positive(self, command, value, capsys):
        """``--epoch-cycles 0`` is an error, not silently the default
        (and never a run whose epoch loop cannot advance)."""
        with pytest.raises(SystemExit) as exc:
            main([command, "--epoch-cycles", value])
        assert exc.value.code == 2
        assert "--epoch-cycles" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run-mix", "submit", "fed-submit"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_instructions_must_be_positive(self, command, value, capsys):
        """``--instructions 0`` is a usage error, caught before any
        simulation or daemon round trip."""
        with pytest.raises(SystemExit) as exc:
            main([command, "--instructions", value])
        assert exc.value.code == 2
        assert "--instructions" in capsys.readouterr().err


class TestCommands:
    def test_list_apps(self, capsys):
        assert main(["list-apps"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out
        assert "thrashing/streaming" in out

    def test_size_unmanaged(self, capsys):
        assert main(["size-unmanaged", "-r", "52", "--pev", "1e-2", "--a-max", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "u = 0.138" in out

    def test_overheads(self, capsys):
        assert main(["overheads"]) == 0
        out = capsys.readouterr().out
        assert "partition-ID tag bits: 6" in out

    def test_classify_unknown_app(self, capsys):
        assert main(["classify", "doom"]) == 1

    def test_classify_known_app(self, capsys):
        assert main(["classify", "libquantum", "--accesses", "15000"]) == 0
        out = capsys.readouterr().out
        assert "classified as" in out

    def test_run_mix_small(self, capsys):
        code = main(
            [
                "run-mix",
                "--mix-class",
                "ssnn",
                "--scheme",
                "vantage-z4/16",
                "--instructions",
                "60000",
                "--epoch-cycles",
                "30000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "managed-eviction fraction" in out

    def test_run_mix_stats_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "stats.json"
        code = main(
            [
                "run-mix",
                "--instructions",
                "20000",
                "--stats-json",
                str(path),
            ]
        )
        assert code == 0
        stats = json.loads(path.read_text())
        assert {"cache", "array", "sim", "policy"} <= set(stats)
        assert sum(stats["cache"]["accesses"]) > 0

    def test_schemes_table(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        assert "vantage" in out
        assert "partitioned" in out
        assert "baseline" in out
        assert "zcache" in out

    def test_schemes_list_bare_names(self, capsys):
        assert main(["schemes", "--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "vantage" in lines
        assert "vantage-drrip" in lines
        assert "lru" in lines
        # Bare names only: one token per line, no descriptions.
        assert all(" " not in line for line in lines)

    def test_schemes_fingerprints(self, capsys):
        assert main(["schemes", "--fingerprints"]) == 0
        out = capsys.readouterr().out
        assert "[" in out

    def test_traces_list_and_purge(self, capsys, monkeypatch, tmp_path):
        import re

        from repro.traces import reset_store

        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
        reset_store()  # fresh memory: the run must compile and write to disk
        try:
            assert main(["run-mix", "--instructions", "8000"]) == 0
            capsys.readouterr()

            assert main(["traces", "--list"]) == 0
            listed = re.search(r"(\d+) trace\(s\)", capsys.readouterr().out)
            assert listed and int(listed.group(1)) > 0

            assert main(["traces", "--purge"]) == 0
            out = capsys.readouterr().out
            assert f"purged {listed.group(1)} trace(s)" in out

            assert main(["traces", "--list"]) == 0
            assert ": 0 trace(s)" in capsys.readouterr().out
        finally:
            reset_store()

        monkeypatch.delenv("REPRO_TRACE_CACHE")
        assert main(["traces", "--list"]) == 1
        assert "on-disk trace store is off" in capsys.readouterr().out


class TestUnknownNames:
    """Misspelled mix/scheme names exit 1 with a hint, no traceback."""

    def test_run_mix_unknown_scheme(self, capsys):
        assert main(["run-mix", "--scheme", "vantge-z4/52"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("error: unknown scheme")
        assert "did you mean" in out
        assert "vantage" in out

    def test_run_mix_unknown_mix_class(self, capsys):
        assert main(["run-mix", "--mix-class", "sftm"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("error:")
        assert "close matches" in out
        assert "sftn" in out

    def test_submit_unknown_scheme_fails_before_connecting(self, capsys):
        # No daemon is running; a pre-validation failure must exit
        # before the client ever tries the socket.
        assert main(["submit", "--scheme", "vantge-z4/52"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("error: unknown scheme")
        assert "did you mean" in out


class TestInterrupts:
    """Ctrl-C and SIGTERM exit with distinct codes, no tracebacks."""

    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        from repro import cli

        def boom(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "list-apps", boom)
        assert main(["list-apps"]) == cli.EXIT_SIGINT
        assert "interrupted" in capsys.readouterr().out

    def test_sigterm_exits_143(self, monkeypatch):
        import os
        import signal

        from repro import cli

        def term_self(args):
            import time

            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(5)  # never elapses: the handler raises first
            return 0

        monkeypatch.setitem(cli._COMMANDS, "list-apps", term_self)
        with pytest.raises(SystemExit) as exc:
            main(["list-apps"])
        assert exc.value.code == cli.EXIT_SIGTERM

    def test_sigterm_handler_restored(self):
        import signal

        before = signal.getsignal(signal.SIGTERM)
        main(["size-unmanaged"])
        assert signal.getsignal(signal.SIGTERM) == before


class TestServiceVerbs:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.queue_size == 256
        assert args.max_retries == 2
        assert args.job_timeout is None
        assert not args.no_cache

    def test_submit_parser_mirrors_run_mix(self):
        args = build_parser().parse_args(["submit", "--scheme", "lru-sa16"])
        assert args.scheme == "lru-sa16"
        assert args.instructions == 400_000
        assert args.priority == 0

    def test_svc_stats_refuses_when_no_daemon(self, tmp_path):
        code_error = None
        try:
            code_error = main(
                ["svc-stats", "--socket", str(tmp_path / "absent.sock")]
            )
        except (ConnectionRefusedError, FileNotFoundError):
            code_error = "raised"
        assert code_error == "raised"


class TestAddressValidation:
    def test_bad_tcp_flag_is_one_line_error_exit_1(self, capsys):
        code = main(["svc-stats", "--tcp", "nonsense"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("error:")
        assert "--tcp" in out
        assert "\n" not in out.strip()

    def test_bad_service_addr_env_is_one_line_error_exit_1(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_SERVICE_ADDR", "::1:7070")
        monkeypatch.delenv("REPRO_SERVICE_SOCKET", raising=False)
        code = main(["svc-stats"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("error:")
        assert "REPRO_SERVICE_ADDR" in out
        assert "[host]:port" in out  # the bracket hint for bare IPv6

    def test_bracketed_ipv6_tcp_flag_parses(self):
        args = build_parser().parse_args(["serve", "--tcp", "[::1]:7070"])
        from repro.cli import _tcp_arg

        assert _tcp_arg(args.tcp) == ("::1", 7070)

    def test_gateway_parser_defaults(self):
        args = build_parser().parse_args(
            ["gateway", "--node", "127.0.0.1:7071", "--node", "127.0.0.1:7072"]
        )
        assert args.node == ["127.0.0.1:7071", "127.0.0.1:7072"]
        assert args.fail_threshold == 2
        assert args.per_node_inflight == 8
        assert args.max_retries == 2
        assert not args.no_cache

    def test_fed_submit_parser_defaults(self):
        args = build_parser().parse_args(["fed-submit"])
        assert args.mixes == 1
        assert args.schemes == "vantage-z4/52"
        assert args.gateway is None
