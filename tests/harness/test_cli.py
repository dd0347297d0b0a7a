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


class TestBenchCompare:
    """``repro bench --compare`` gates on speedup regressions.

    ``run_bench`` is stubbed: these tests pin the exit-code contract
    and the fail-fast baseline parse, not the timing harness itself
    (which ``test_bench.py`` covers)."""

    REPORT = {
        "smoke": False,
        "kernels": [{"scheme": "vantage-z4/52", "speedup_vs_object": 9.0}],
    }

    def _stub_bench(self, monkeypatch):
        import repro.harness.bench as bench

        monkeypatch.setattr(bench, "run_bench", lambda **kw: dict(self.REPORT))

    def _baseline(self, tmp_path, speedup):
        import json

        path = tmp_path / "BENCH_base.json"
        path.write_text(
            json.dumps(
                {
                    "smoke": False,
                    "kernels": [
                        {"scheme": "vantage-z4/52", "speedup_vs_object": speedup}
                    ],
                            }
            )
        )
        return str(path)

    def test_regression_exits_nonzero(self, capsys, monkeypatch, tmp_path):
        self._stub_bench(monkeypatch)
        baseline = self._baseline(tmp_path, speedup=20.0)
        assert main(["bench", "--smoke", "--compare", baseline]) == 1
        assert "speedup regressions" in capsys.readouterr().out

    def test_no_regression_exits_zero(self, capsys, monkeypatch, tmp_path):
        self._stub_bench(monkeypatch)
        baseline = self._baseline(tmp_path, speedup=9.0)
        assert main(["bench", "--smoke", "--compare", baseline]) == 0
        assert "no speedup regressions" in capsys.readouterr().out

    def test_bad_baseline_fails_before_bench_runs(self, monkeypatch, tmp_path):
        import pytest as _pytest

        import repro.harness.bench as bench

        def _boom(**kw):
            raise AssertionError("bench must not run when the baseline is unreadable")

        monkeypatch.setattr(bench, "run_bench", _boom)
        with _pytest.raises(FileNotFoundError):
            main(["bench", "--compare", str(tmp_path / "missing.json")])

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


class TestBenchHistory:
    """``repro bench --history`` appends runs and gates against the
    best recent entry.  ``run_bench`` is stubbed as in
    ``TestBenchCompare``; ``update_history`` itself runs for real."""

    def _stub_bench(self, monkeypatch, speedup=9.0):
        import repro.harness.bench as bench

        report = {
            "tag": "local",
            "smoke": False,
            "kernels": [
                {
                    "scheme": "vantage-z4/52",
                    "partitioned": True,
                    "instructions": 1000,
                    "optimized_s": 1.0,
                    "object_s": speedup,
                    "speedup_vs_object": speedup,
                }
            ],
        }
        monkeypatch.setattr(bench, "run_bench", lambda **kw: dict(report))

    def _entries(self, path):
        import json

        return json.loads(path.read_text())

    def test_first_run_seeds_the_history(self, capsys, monkeypatch, tmp_path):
        self._stub_bench(monkeypatch)
        history = tmp_path / "history.json"
        assert main(["bench", "--smoke", "--history", str(history)]) == 0
        assert "appended to" in capsys.readouterr().out
        entries = self._entries(history)
        assert len(entries) == 1
        assert entries[0]["kernels"][0]["speedup_vs_object"] == 9.0
        # Entries are slimmed: raw timings kept, peak-memory and
        # identical flags dropped.
        assert "identical" not in entries[0]["kernels"][0]

    def test_steady_speedup_accumulates(self, capsys, monkeypatch, tmp_path):
        self._stub_bench(monkeypatch)
        history = tmp_path / "history.json"
        for _ in range(3):
            assert main(["bench", "--smoke", "--history", str(history)]) == 0
        assert len(self._entries(history)) == 3

    def test_regression_vs_best_of_window_exits_nonzero(
        self, capsys, monkeypatch, tmp_path
    ):
        history = tmp_path / "history.json"
        self._stub_bench(monkeypatch, speedup=9.0)
        assert main(["bench", "--smoke", "--history", str(history)]) == 0
        capsys.readouterr()
        self._stub_bench(monkeypatch, speedup=5.0)
        assert main(["bench", "--smoke", "--history", str(history)]) == 1
        out = capsys.readouterr().out
        assert "speedup regressions vs best of last 1" in out
        # The slow run is still recorded.
        assert len(self._entries(history)) == 2

    def test_smoke_entries_are_recorded_but_never_compared(
        self, monkeypatch, tmp_path
    ):
        import json

        history = tmp_path / "history.json"
        history.write_text(
            json.dumps(
                [
                    {
                        "tag": "ci",
                        "smoke": True,
                        "kernels": [
                            {"scheme": "vantage-z4/52", "speedup_vs_object": 99.0}
                        ],
                    }
                ]
            )
        )
        self._stub_bench(monkeypatch, speedup=5.0)
        # The only prior entry is a smoke run: no baseline, no gate.
        assert main(["bench", "--smoke", "--history", str(history)]) == 0
        assert len(self._entries(history)) == 2

    def test_window_forgives_old_peaks(self, monkeypatch, tmp_path):
        import json

        history = tmp_path / "history.json"
        # One ancient fast run followed by five slow ones: the fast
        # run has aged out of the 5-entry window, so a matching slow
        # run passes.
        entries = [
            {
                "tag": "old",
                "smoke": False,
                "kernels": [{"scheme": "vantage-z4/52", "speedup_vs_object": 50.0}],
            }
        ]
        entries += [
            {
                "tag": f"run{i}",
                "smoke": False,
                "kernels": [{"scheme": "vantage-z4/52", "speedup_vs_object": 5.0}],
            }
            for i in range(5)
        ]
        history.write_text(json.dumps(entries))
        self._stub_bench(monkeypatch, speedup=5.0)
        assert main(["bench", "--smoke", "--history", str(history)]) == 0

    def test_corrupt_history_fails_before_bench_runs(
        self, capsys, monkeypatch, tmp_path
    ):
        import repro.harness.bench as bench

        def _boom(**kw):
            raise AssertionError(
                "bench must not run when the history is unreadable"
            )

        monkeypatch.setattr(bench, "run_bench", _boom)
        history = tmp_path / "history.json"
        history.write_text('{"not": "a list"}')
        assert main(["bench", "--history", str(history)]) == 1
        assert "not a bench history" in capsys.readouterr().out


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
