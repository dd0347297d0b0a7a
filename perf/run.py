"""The repository's benchmark: regenerate Figures 6 and 7 and serve a
request burst through each front door, from cold caches.

Usage (from the repository root)::

    python3 perf/run.py [--workload W] [--seed N] [--seconds S]
                        [--trace [0|1]] [--smoke] [--repeat N] [--out DIR]

Every workload runs in a fresh session process (``perf/session.py``)
with cold results and trace caches and every ``REPRO_*`` variable
scrubbed.  Untraced runs print each end-to-end metric of
``BENCHMARK.json``; ``--trace`` runs the workload twice, untraced and
traced, and prints the per-layer metrics instead, with each layer's
share of the traced wall time and ``trace_overhead``.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Outputs are checked (digests, warm ==
cold, duplicates, an inline spot check, the Vantage steady-state
guard); any failed check exits 1 after the metrics are printed.

``--repeat N`` runs the selected workloads N times, round-robin, with
seeds ``seed .. seed+N-1``; with ``--out DIR`` each run's record is
written there as JSON for ``perf/compare.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
OUT = PERF / "out"

sys.path.insert(0, str(PERF))
import tracing  # noqa: E402  (analysis only; imports no repro code)

WORKLOADS = ("fig6-sweep", "fig7-32core", "service-burst", "gateway-burst")
#: Session time limits (the whole run must end within 180 s).
SETUP_TIMEOUT = 60
MAIN_TIMEOUT = 150
#: Session spawns per run for ``setup_s``: half of the setup-only
#: spawns run before the measured one and half after, so the median
#: samples the host at more than one moment.
SETUP_SPAWNS = 3
PSS_PERIOD = 0.2
#: Allowed gap between the summed per-layer wall shares and ``wall_s``.
ATTRIBUTION_TOLERANCE = 0.10


# -- process tree and memory --------------------------------------------


def _ppid_map() -> dict:
    out = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        out[int(entry.name)] = int(fields[1])
    return out


def process_tree(root: int) -> list[int]:
    children: dict = {}
    for pid, ppid in _ppid_map().items():
        children.setdefault(ppid, []).append(pid)
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(children.get(pid, []))
    return tree


def pss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


class TreeWatch:
    """Samples the summed PSS of a process tree and remembers every
    process group in it, so nothing the session started outlives it."""

    def __init__(self, pid: int):
        self.pid = pid
        self.peak_kib = 0
        self.groups: set[int] = set()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.is_set():
            pids = process_tree(self.pid)
            for pid in pids:
                with contextlib.suppress(OSError):
                    self.groups.add(os.getpgid(pid))
            self.peak_kib = max(self.peak_kib, sum(pss_kib(p) for p in pids))
            self._stop.wait(PSS_PERIOD)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


def reap(groups: set[int]) -> None:
    """SIGKILL leftover process groups and wait until they are gone."""
    groups = {g for g in groups if g != os.getpgid(0)}
    for group in groups:
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(group, signal.SIGKILL)
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        alive = set()
        for group in groups:
            try:
                os.killpg(group, 0)
                alive.add(group)
            except (ProcessLookupError, PermissionError):
                pass
        if not alive:
            return
        time.sleep(0.05)


def shm_segments() -> set[str]:
    root = Path("/dev/shm")
    return {p.name for p in root.glob("repro_trc_*")} if root.is_dir() else set()


# -- session processes --------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(run_dir: Path, args: list[str], timeout: float):
    """Run one session in ``run_dir``; returns (result, spawn time,
    peak PSS KiB, exit code)."""
    run_dir.mkdir(parents=True)
    env = child_env()
    env["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    before = shm_segments()
    with open(run_dir / "session.log", "wb") as log:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(PERF / "session.py"), *args],
            cwd=run_dir, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        tree = TreeWatch(proc.pid)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            tree.stop()
            reap(tree.groups | {proc.pid})
            proc.wait()
    for name in shm_segments() - before:
        # Only segments this run created; the default configuration
        # publishes none, so this is a leak guard.
        with contextlib.suppress(OSError):
            (Path("/dev/shm") / name).unlink()
    result_path = run_dir / "result.json"
    result = json.loads(result_path.read_text()) if result_path.exists() else {}
    return result, t_spawn, tree.peak_kib, code


def session_failure(run_dir: Path, code) -> str:
    log = (run_dir / "session.log").read_text(errors="replace")
    tail = "\n".join(log.splitlines()[-20:])
    what = "timed out" if code is None else f"exited {code}"
    return f"session in {run_dir} {what}:\n{tail}"


# -- statistics ----------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q`` quantile (0..1) of ``values``."""
    data = sorted(values)
    if not data:
        return float("nan")
    pos = (len(data) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


#: Units of the end-to-end metrics; ``BENCHMARK.json`` gates only
#: those steady enough on the reference machine (see perf/README.md).
E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "jobs_per_s": "jobs/s",
    "sim_accesses_per_s": "accesses/s", "latency_p50_s": "s", "latency_p90_s": "s",
    "cached_latency_p50_s": "s", "cached_latency_p99_s": "s",
    "peak_pss_mib": "MiB", "failed_frac": "ratio",
}


def unit_of(name: str) -> str:
    """Unit of a metric ``BENCHMARK.json`` does not list."""
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(("_frac", "_balance")) else "count"


def note_samples(values, q: float) -> str:
    n = len(values)
    beyond = int(n * (1 - q))
    return f"n={n}" + ("" if beyond >= 10 else f", {beyond} beyond p{round(q * 100)}")


# -- metrics -------------------------------------------------------------


def end_to_end(result: dict, setups: list[float], peak_kib: int) -> tuple[dict, dict]:
    """End-to-end metrics and their sample notes."""
    cold, warm = result["cold"], result["warm"]
    wall = cold["t1"] - cold["t0"]
    ok = [r for r in cold["requests"] if r[3]]
    lat = [r[0] for r in ok]
    cached = warm["latency"]
    accesses = sum(f["accesses"] for f in result["fresh"])
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "jobs_per_s": len(ok) / wall,
        "sim_accesses_per_s": accesses / wall,
        "latency_p50_s": percentile(lat, 0.50),
        "latency_p90_s": percentile(lat, 0.90),
        "cached_latency_p50_s": percentile(cached, 0.50),
        "cached_latency_p99_s": percentile(cached, 0.99),
        "peak_pss_mib": peak_kib / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setups)} spawns",
        "latency_p50_s": note_samples(lat, 0.50),
        "latency_p90_s": note_samples(lat, 0.90),
        "cached_latency_p50_s": note_samples(cached, 0.50),
        "cached_latency_p99_s": note_samples(cached, 0.99),
    }
    return values, notes


def front_door_metrics(result: dict) -> dict:
    """Service and federation layer metrics, read from outside: client
    round trips plus each server's ``stats`` op after the cold pass."""
    stats = result.get("server_stats", {}).get("cold", {})
    reqs = [r for r in result["cold"]["requests"] if r[3]]
    fresh = [r for r in reqs if r[2]]
    out = {}
    if "daemon" in stats:
        tree = stats["daemon"]["service"]
        out.update({
            "service.rtt_p50_s": percentile([r[0] for r in reqs], 0.5),
            "service.job_wall_p50_s": percentile([r[1] for r in fresh], 0.5),
            "service.overhead_p50_s": percentile([r[0] - r[1] for r in fresh], 0.5),
            "service.dedupe_hits": tree["queue"]["dedupe_hits"],
            "service.cache_hits": tree["queue"]["cache_hits"],
            "service.failed": tree["queue"]["failed"],
            "service.retries": tree["workers"]["retries"],
            "service.rejected": tree["queue"]["rejected"],
        })
    if "gateway" in stats:
        fed = stats["gateway"]["federation"]
        routed = [node["routed"] for node in fed["nodes"].values()]
        out.update({
            "federation.routed": fed["routed"],
            "federation.dedupe_hits": fed["dedupe_hits"],
            "federation.cache_hits": fed["cache_hits"],
            "federation.failover_requeues": fed["failover_requeues"],
            "federation.node_balance": max(routed) / max(min(routed), 1),
            "federation.overhead_p50_s": percentile([r[0] - r[1] for r in fresh], 0.5),
        })
    return out


def per_layer(result: dict, spans: list, untraced_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics of the cold pass, plus the wall attribution
    of the cold and warm passes."""
    segments = tracing.lanes(spans)
    selfs = tracing.self_times(segments)
    passes = {s[8]: (s[2], s[3]) for s in spans if s[1] == "pass"}
    w0, w1 = passes["cold"]
    inside = [s for s in spans if s[2] >= w0 and s[3] <= w1]

    def self_of(*names):
        return sum(selfs.get(s[0], 0.0) for s in inside if s[1] in names)

    def count(name, info=...):
        return sum(1 for s in inside if s[1] == name and (info is ... or s[8] == info))

    fresh = result["fresh"]
    accesses = sum(f["accesses"] for f in fresh)
    vantage = [f for f in fresh if f["scheme"].startswith("vantage")]
    walks = sum(f["walks"] for f in fresh)
    compiles = count("compile_chunk")
    compiled_pairs = compiles * result["chunk_pairs"]
    jobs = [s[3] - s[2] for s in inside if s[1] == "execute_job"]
    wall = result["cold"]["t1"] - result["cold"]["t0"]
    kernel_s = self_of("kernel")
    counters: dict = {}
    for f in fresh:
        pid_counters = counters.setdefault(f["pid"], {})
        for name, value in (f["trace_counters"] or {}).items():
            pid_counters[name] = max(pid_counters.get(name, 0), value)

    def trace_counter(name):
        return sum(c.get(name, 0) for c in counters.values())

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {
        "traces.compile_s": self_of("compile_chunk"),
        "traces.compiles": compiles,
        "traces.compiled_pairs": compiled_pairs,
        "traces.pairs_used_frac": ratio(accesses, compiled_pairs),
        "traces.lookup_s": self_of("chunk_list"),
        "traces.mem_hits": trace_counter("mem_hits"),
        "sim.run_s": sum(s[3] - s[2] for s in inside if s[1] == "sim.run"),
        "sim.self_s": self_of("sim.run"),
        "sim.batch_calls": count("kernel"),
        "sim.refills": count("chunk_list"),
        "sim.epochs": sum(f["epochs"] for f in fresh),
        "partitioning.kernel_s": kernel_s,
        "partitioning.kernel_ns_per_access": ratio(kernel_s * 1e9, accesses),
        "partitioning.hit_ratio": ratio(sum(f["hits"] for f in fresh), accesses),
        "partitioning.set_allocations_s": self_of("set_allocations"),
        "arrays.walks": walks,
        "arrays.candidates_per_walk": ratio(sum(f["candidates"] for f in fresh), walks),
        "arrays.relocations_per_walk": ratio(sum(f["relocations"] for f in fresh), walks),
        "core.demotions_per_miss": ratio(
            sum(f["demotions"] for f in vantage), sum(f["misses"] for f in vantage)
        ),
        "core.evictions_managed_frac": ratio(
            sum(f["evictions_managed"] for f in vantage),
            sum(f["evictions_managed"] + f["evictions_unmanaged"] for f in vantage),
        ),
        "allocation.allocate_s": self_of("allocate"),
        "allocation.allocate_calls": count("allocate"),
        "allocation.sampled_accesses": sum(f["sampled_accesses"] for f in fresh),
        "telemetry.tree_s": self_of("system_tree", "snapshot"),
        "harness.build_s": self_of("build_cache", "build_policy"),
        "harness.job_s_p50": percentile(jobs, 0.5),
        "harness.job_s_p90": percentile(jobs, 0.9),
        "harness.worker_utilization": ratio(sum(jobs), wall * result["workers"]),
        "harness.results_cache_load_s": self_of("results_cache.load"),
        "harness.results_cache_store_s": self_of("results_cache.store"),
        "harness.cache_hits": count("results_cache.load", True),
        "harness.cache_misses": count("results_cache.load", False),
        "trace_overhead": wall / untraced_wall,
    }
    # Reported only: these exist on some workloads, or read 0 in the
    # default configuration.
    metrics.update({
        "harness.plan_s": self_of("plan_jobs"),
        "harness.publish_s": self_of("publish_traces"),
        "traces.shm_hits": trace_counter("shm_hits"),
        "traces.disk_hits": trace_counter("disk_hits"),
    })
    if result["front"] != "local":
        metrics.update(front_door_metrics(result))
    shares = {name: tracing.attribute(segments, window) for name, window in passes.items()}
    return metrics, shares


# -- checks ---------------------------------------------------------------


def steady_state(fresh: list, exempt) -> tuple[bool, str]:
    """The Vantage steady-state guard: every vantage-z4/52 job whose
    mix is not in ``exempt`` (see ``workloads.Workload.steady_exempt``)
    demotes lines, evicts from the managed region and runs at least two
    allocation epochs.  A benchmark whose Vantage jobs never leave cold
    fill times the wrong code."""
    jobs = [f for f in fresh if f["scheme"] == "vantage-z4/52"]
    checked = [f for f in jobs if f["mix"] not in exempt]
    cold = [f["mix"] for f in checked
            if not (f["demotions"] > 0 and f["evictions_managed"] > 0 and f["epochs"] >= 2)]
    detail = f"{len(checked) - len(cold)}/{len(checked)} checked vantage-z4/52 jobs in steady state"
    if cold:
        detail += "; not: " + ", ".join(cold)
    if len(checked) < len(jobs):
        detail += f"; {len(jobs) - len(checked)} exempt"
    return bool(jobs) and not cold, detail


def check(result: dict, smoke: bool) -> list[tuple[str, bool, str]]:
    """``(check, passed, detail)`` rows for one session result."""
    rows = []
    checks = result["checks"]
    expected = json.loads((PERF / "expected_digests.json").read_text())
    table = expected.get(("smoke/" if smoke else "") + result["workload"], {})
    want = table.get(str(result["seed"]))
    got = checks["digest"]
    if want is None:
        rows.append(("digest", got is not None, f"{got} (unchecked seed)"))
    else:
        rows.append(("digest", got == want, got if got == want else f"{got} != expected {want}"))
    rows.append(("warm == cold", checks["warm_mismatch"] == 0,
                 f"{checks['warm_mismatch']} mismatching warm results"))
    rows.append(("duplicates agree", checks["dup_mismatch"] == 0,
                 f"{checks['dup_mismatch']} mismatching duplicates"))
    spot = checks["spot"]
    rows.append(("inline spot check", bool(spot) and all(s[2] for s in spot),
                 ", ".join(f"{m}/{s} {'ok' if same else 'DIFFERS'}" for m, s, same in spot)))
    failed = result["cold"]["failed"] + result["warm"]["failed"]
    rows.append(("no failed requests", failed == 0,
                 f"{failed} failed; {checks['errors']}" if failed else "0 failed"))
    rows.append(("steady state", *steady_state(result["fresh"], result["steady_exempt"])))
    return rows


# -- one workload -------------------------------------------------------


def provenance() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def run_workload(name: str, seed: int, trace: bool, smoke: bool, spec: dict, base: Path) -> dict:
    """Run ``name`` once; returns the record written for it."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    load_before = os.getloadavg()[0]
    common = ["--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    errors = []
    record: dict = {"workload": name, "seed": seed, "trace": trace, "smoke": smoke}

    def main_run(tag, extra):
        run_dir = base / tag
        result, t_spawn, peak, code = spawn(run_dir, common + extra, MAIN_TIMEOUT)
        if code != 0 or "cold" not in result:
            errors.append(session_failure(run_dir, code))
            return None, t_spawn, peak
        return result, t_spawn, peak

    if not trace:
        setups = []

        def setup_only(k):
            run_dir = base / f"setup{k}"
            got, t_spawn, _, code = spawn(run_dir, common + ["--mode", "setup"], SETUP_TIMEOUT)
            if code != 0 or "ready_at" not in got:
                errors.append(session_failure(run_dir, code))
            else:
                setups.append(got["ready_at"] - t_spawn)

        before = (SETUP_SPAWNS - 1) // 2
        for k in range(before):
            setup_only(k)
        result, t_spawn, peak = main_run("main", [])
        for k in range(before, SETUP_SPAWNS - 1):
            setup_only(k)
        if result is not None:
            setups.append(result["ready_at"] - t_spawn)
            metrics, notes = end_to_end(result, setups, peak)
            if result["front"] != "local":
                metrics.update(front_door_metrics(result))
    else:
        reference, _, _ = main_run("untraced", [])
        result, _, _ = main_run("traced", ["--trace"])
        if result is not None and reference is not None:
            spans = json.loads((base / "traced" / "spans.json").read_text())
            OUT.mkdir(exist_ok=True)
            (OUT / f"spans-{name}.json").write_text(json.dumps(spans))
            untraced_wall = reference["cold"]["t1"] - reference["cold"]["t0"]
            metrics, shares = per_layer(result, spans, untraced_wall)
            notes = {}
            record["shares"] = shares
        else:
            result = None
    record["load_1min"] = [load_before, os.getloadavg()[0]]
    if result is None:
        record.update(correct=False, attempted=1, failed=1, metrics={}, errors=errors)
        return record

    rows = check(result, smoke)
    if trace:
        cold = result["cold"]
        rows.append(("layer shares sum to wall", *tracing.covers_wall(
            record["shares"]["cold"], cold["t1"] - cold["t0"], ATTRIBUTION_TOLERANCE)))
    record["checks"] = [list(r) for r in rows]
    record["digest"] = result["checks"]["digest"]
    attempted = result["cold"]["attempted"] + result["warm"]["attempted"]
    failed = result["cold"]["failed"] + result["warm"]["failed"]
    metrics["failed_frac"] = failed / attempted
    record["metrics"] = {
        k: {"value": v, "unit": units.get(k) or unit_of(k)} for k, v in metrics.items()
    }
    record["notes"] = notes
    record.update(correct=all(r[1] for r in rows) and not errors,
                  attempted=attempted, failed=failed, errors=errors)
    return record


def report(record: dict) -> None:
    """Human-readable lines for one workload record."""
    head = f"== {record['workload']} seed={record['seed']}"
    print(head + (" (traced)" if record["trace"] else "") + (" (smoke)" if record["smoke"] else ""))
    print(f"   load 1-min before/after: {record['load_1min'][0]:.2f} / {record['load_1min'][1]:.2f}")
    for err in record.get("errors", []):
        print("   ERROR " + err.replace("\n", "\n         "))
    for name, m in record["metrics"].items():
        note = record.get("notes", {}).get(name)
        print(f"   {name:36s} {m['value']:>14.6g} {m['unit']:10s}" + (f" ({note})" if note else ""))
    for name, shares in record.get("shares", {}).items():
        total = sum(shares.values())
        parts = ", ".join(
            f"{layer} {secs:.3f}s {100 * secs / total:.1f}%"
            for layer, secs in sorted(shares.items(), key=lambda kv: -kv[1])
        )
        print(f"   wall shares, {name} pass ({total:.3f} s): {parts}")
    for check_name, ok, detail in record.get("checks", []):
        print(f"   check {check_name:26s} {'ok  ' if ok else 'FAIL'} {detail}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, action="append",
                   help="run only this workload (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=0,
                   help="input seed (0 is the default, 1 is held out)")
    p.add_argument("--seconds", type=float, default=None,
                   help="accepted for the BENCHMARK.json contract and ignored: every pass "
                        "is a fixed amount of work")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    p.add_argument("--smoke", action="store_true",
                   help="a few small jobs per workload; checks wiring, not speed")
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--out", type=Path, default=None,
                   help="directory for one result JSON per run")
    args = p.parse_args(argv)
    # A SIGTERM unwinds through ``spawn``'s cleanup like Ctrl-C does.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or list(WORKLOADS)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    out_dir = args.out
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    prov = provenance()
    print(f"commit {prov['commit']}, python {prov['python']}, nproc {prov['nproc']}")

    records = []
    for i in range(args.repeat):
        for name in names:
            seed = args.seed + i
            base = OUT / f"run-{name}-{seed}-{os.getpid()}"
            try:
                record = run_workload(name, seed, bool(args.trace), args.smoke, spec, base)
            finally:
                shutil.rmtree(base, ignore_errors=True)
            record["provenance"] = prov
            report(record)
            records.append(record)
            if out_dir is not None:
                tag = "trace" if args.trace else "e2e"
                (out_dir / f"{name}-seed{seed}-{tag}.json").write_text(json.dumps(record, indent=1))
    correct = all(r["correct"] for r in records)
    digests: dict = {}
    for r in records:
        digests.setdefault(r["seed"], {})[r["workload"]] = r.get("digest")
    for seed, by_name in digests.items():
        if "service-burst" in by_name and "gateway-burst" in by_name:
            same = by_name["service-burst"] == by_name["gateway-burst"]
            print(f"   check {'daemon == gateway digest':26s} {'ok  ' if same else 'FAIL'} seed {seed}")
            correct = correct and same
    for r in records:
        missing = [m for m in wanted if m not in r["metrics"]]
        if missing and r["metrics"]:
            print(f"   {r['workload']}: metrics not produced: {', '.join(missing)}")
            correct = False

    if len(records) == 1:
        metrics = {m: records[0]["metrics"][m] for m in wanted if m in records[0]["metrics"]}
    else:
        metrics = {
            f"{r['workload']}/{m}": r["metrics"][m]
            for r in records for m in wanted if m in r["metrics"]
        }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
