"""Smoke test of the benchmark itself (``pytest perf/``; not tier-1).

Runs ``perf/run.py --smoke`` untraced and traced -- every workload
shrunk to a few jobs of at most 20k instructions -- and checks that
the benchmark prints every metric ``BENCHMARK.json`` names with its
unit, that the digests and the steady-state guard run, that the spans
account for the traced wall time, and that nothing is left behind.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
sys.path.insert(0, str(PERF))
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def shm_segments() -> set:
    return {p.name for p in Path("/dev/shm").glob("repro_trc_*")}


def benchmark_processes() -> list[str]:
    """Command lines of live processes running the benchmark's files."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode()
        except OSError:
            continue
        if str(PERF / "session.py") in cmdline or str(PERF / "tracing.py") in cmdline:
            found.append(cmdline)
    return found


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    shm_before = shm_segments()
    out = {}
    start = time.monotonic()
    for mode, extra in (("e2e", []), ("trace", ["--trace"])):
        outdir = tmp_path_factory.mktemp(mode)
        proc = subprocess.run(
            [sys.executable, "perf/run.py", "--smoke", "--out", str(outdir), *extra],
            cwd=ROOT, capture_output=True, text=True, timeout=240,
        )
        records = {
            r["workload"]: r
            for r in (json.loads(p.read_text()) for p in outdir.glob("*.json"))
        }
        out[mode] = (proc, records)
    out["seconds"] = time.monotonic() - start
    out["shm_before"] = shm_before
    return out


def test_smoke_is_quick(runs):
    assert runs["seconds"] < 90


@pytest.mark.parametrize("mode,kind", [("e2e", "end_to_end"), ("trace", "per_layer")])
def test_every_metric_printed_with_unit(runs, mode, kind):
    proc, _ = runs[mode]
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    for workload in WORKLOADS:
        for metric in SPEC[kind]:
            printed = last["metrics"][f"{workload}/{metric['name']}"]
            assert printed["unit"] == metric["unit"]
            assert isinstance(printed["value"], (int, float))
    for metric in SPEC[kind]:
        assert f"   {metric['name']} " in proc.stdout


def test_ungated_end_to_end_metrics_printed_with_unit(runs):
    import run

    _, records = runs["e2e"]
    for record in records.values():
        for name, unit in run.E2E_UNITS.items():
            assert record["metrics"][name]["unit"] == unit, (record["workload"], name)


@pytest.mark.parametrize("mode", ["e2e", "trace"])
def test_digest_and_steady_state_guard_run(runs, mode):
    _, records = runs[mode]
    assert set(records) == set(WORKLOADS)
    expected = json.loads((PERF / "expected_digests.json").read_text())
    for name, record in records.items():
        checks = {row[0]: row for row in record["checks"]}
        assert checks["digest"][1], checks["digest"]
        assert record["digest"] == expected[f"smoke/{name}"][str(record["seed"])]
        # Smoke jobs fill their 64 KB L2, so no Vantage job is exempt.
        assert checks["steady state"][1], checks["steady state"]
        assert "checked vantage-z4/52 jobs in steady state" in checks["steady state"][2]
        assert "exempt" not in checks["steady state"][2]
    assert records["service-burst"]["digest"] == records["gateway-burst"]["digest"]


def vantage_job(mix, demotions=10, evictions_managed=5, epochs=3):
    return {"mix": mix, "scheme": "vantage-z4/52", "demotions": demotions,
            "evictions_managed": evictions_managed, "epochs": epochs}


def test_steady_state_guard_checks_every_job():
    import run

    steady = [vantage_job("sftn1"), vantage_job("ssft1"),
              {"mix": "sftn1", "scheme": "lru-sa16"}]
    assert run.steady_state(steady, frozenset())[0]
    for cold in (vantage_job("ffnn1", demotions=0), vantage_job("ffnn1", evictions_managed=0),
                 vantage_job("ffnn1", epochs=1)):
        ok, detail = run.steady_state(steady + [cold], frozenset())
        assert not ok and "not: ffnn1" in detail
        # A named exemption skips that mix's job and no other.
        ok, detail = run.steady_state(steady + [cold], frozenset({"ffnn1"}))
        assert ok and "1 exempt" in detail
        assert not run.steady_state([cold], frozenset({"sftn1"}))[0]
    # No Vantage job at all is not steady state.
    assert not run.steady_state(steady[2:], frozenset())[0]


def span(sid, name, start, end, tid=1, info=None):
    return [sid, name, start, end, None, None, 100, tid, info]


def test_attribution_leaves_uncovered_time_unattributed():
    # The pass and run_jobs bracket a 10 s window; layer spans cover
    # 0-4 s and 7-10 s on the main thread, and a second lane works
    # 5-6 s.  The 4-5 s and 6-7 s gaps belong to no layer.
    spans = [
        span("1", "pass", 0.0, 10.0, info="cold"),
        span("2", "run_jobs", 0.0, 10.0),
        span("3", "execute_job", 0.0, 4.0),
        span("4", "kernel", 1.0, 3.0),
        span("5", "execute_job", 7.0, 10.0),
        span("6", "compile_chunk", 5.0, 6.0, tid=2),
    ]
    shares = tracing.attribute(tracing.lanes(spans), (0.0, 10.0))
    assert shares == pytest.approx({"harness": 5.0, "partitioning": 2.0, "traces": 1.0,
                                    "(none)": 2.0})
    assert sum(shares.values()) == pytest.approx(10.0)
    ok, detail = tracing.covers_wall(shares, 10.0, 0.10)
    assert not ok and "8.000 s of 10.000 s" in detail
    # Close the gaps and the same check passes.
    spans += [span("7", "plan_jobs", 4.0, 7.0)]
    shares = tracing.attribute(tracing.lanes(spans), (0.0, 10.0))
    assert tracing.covers_wall(shares, 10.0, 0.10)[0]


def test_waiting_client_spans_yield_to_working_lanes():
    spans = [
        span("1", "svc.submit", 0.0, 4.0),
        span("2", "execute_job", 1.0, 3.0, tid=2),
    ]
    shares = tracing.attribute(tracing.lanes(spans), (0.0, 4.0))
    assert shares == pytest.approx({"service": 2.0, "harness": 2.0})


def test_traced_layer_self_times_cover_the_wall(runs):
    _, records = runs["trace"]
    for name in WORKLOADS:
        spans = json.loads((PERF / "out" / f"spans-{name}.json").read_text())
        assert spans, name
        cold = next(s for s in spans if s[1] == "pass" and s[8] == "cold")
        shares = tracing.attribute(tracing.lanes(spans), (cold[2], cold[3]))
        assert tracing.covers_wall(shares, cold[3] - cold[2], 0.10)[0], (name, shares)
        # The simulation layers, not just the front door, were traced.
        assert {"traces", "partitioning", "harness"} <= set(shares), shares
        # ... and the run compared the shares with its own timer.
        checks = {row[0]: row for row in records[name]["checks"]}
        assert checks["layer shares sum to wall"][1], checks["layer shares sum to wall"]
        assert records[name]["metrics"]["trace_overhead"]["value"] > 0


def test_nothing_left_behind(runs):
    assert benchmark_processes() == []
    assert shm_segments() <= runs["shm_before"]
    assert not list((PERF / "out").glob("run-*"))
