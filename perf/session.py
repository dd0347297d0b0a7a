"""One run of one workload, in a fresh process with cold caches.

``perf/run.py`` starts this file in an empty run directory with every
``REPRO_*`` variable scrubbed from the environment except a fresh
``REPRO_CACHE_DIR``.  It builds the workload, brings its front door up
(nothing for ``run_jobs``; one daemon; a gateway over two daemons),
then runs:

- the **cold pass**: the stream once, from empty results and trace
  caches -- ``run_jobs`` for the figure sweeps, two closed-loop client
  threads (each waits for its reply) for the daemon and the gateway;
- the **warm pass**: the stream :data:`WARM_REPS` times more, request
  by request; every request is a results-cache hit;
- a **spot check**: a job or two re-run inline with ``execute_job``,
  whose result must equal the front door's.

Timings, per-job statistics, server counters and the checks' inputs
go to ``result.json`` in the run directory (spans to ``spans.json``
with ``--trace``); ``perf/run.py`` turns them into metrics.  With
``--mode setup`` the session stops once the front door is ready, which
is how ``setup_s`` gets more than one sample per run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

PERF = Path(__file__).resolve().parent

#: Seconds a daemon or gateway may take to answer its first ping.
READY_TIMEOUT = 60.0
#: The warm pass resubmits the stream this many times.
WARM_REPS = 10


class NoSpans:
    """Stand-in for :class:`tracing.Recorder` in untraced runs."""

    spans: list = []

    @contextlib.contextmanager
    def span(self, name, info=None):
        yield


# -- front doors --------------------------------------------------------


class LocalDoor:
    """``run_jobs`` in this process (a 2-worker pool, or inline)."""

    def __init__(self, workers: int):
        self.workers = workers

    def start(self, trace: bool) -> None:
        pass

    def cold(self, jobs, tracer):
        from repro.harness import parallel

        t0 = time.perf_counter()
        outcomes = parallel.run_jobs(jobs, workers=self.workers)
        # ``run_jobs`` hands back every outcome when the sweep ends, so
        # every job's latency is the whole call.
        latency = time.perf_counter() - t0
        return [(latency, o, None) for o in outcomes]

    def warm(self, jobs, count, tracer, expect):
        from repro.harness import parallel

        records = []
        for i in range(count):
            t0 = time.perf_counter()
            (outcome,) = parallel.run_jobs([jobs[i % len(jobs)]], workers=self.workers)
            lat = time.perf_counter() - t0
            records.append((lat, outcome.result == expect[i % len(jobs)], None))
        return records

    def stats(self) -> dict:
        return {}

    def stop(self) -> list:
        return []


class Server:
    """One ``repro serve`` or ``repro gateway`` child process."""

    def __init__(self, argv, name: str, trace: bool):
        self.name = name
        self.socket = f"{name}.sock"
        entry = [str(PERF / "tracing.py")] if trace else ["-m", "repro"]
        env = dict(os.environ, REPRO_CACHE_DIR=str(Path.cwd() / f"{name}-cache"))
        self.log = open(f"{name}.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, *entry, *argv, "--socket", self.socket],
            env=env,
            stdout=self.log,
            stderr=subprocess.STDOUT,
            start_new_session=True,  # its workers share its group
        )

    def client(self, **kwargs):
        from repro.service import ServiceClient

        return ServiceClient(socket_path=self.socket, **kwargs)

    def wait_ready(self) -> None:
        from repro.service import ServiceError

        deadline = time.monotonic() + READY_TIMEOUT
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"{self.name} exited at startup")
            try:
                with self.client(retries=0, timeout=5) as svc:
                    svc.ping()
                return
            except (OSError, ServiceError):
                time.sleep(0.02)
        raise RuntimeError(f"{self.name} did not answer within {READY_TIMEOUT}s")

    def stop(self) -> None:
        from repro.service import ServiceError

        if self.proc.poll() is None:
            try:
                with self.client(retries=0, timeout=10) as svc:
                    svc.shutdown()
                self.proc.wait(timeout=30)
            except (OSError, ServiceError, subprocess.TimeoutExpired):
                pass
        for sig in (signal.SIGTERM, signal.SIGKILL):
            if self.proc.poll() is not None:
                break
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self.proc.pid, sig)
            with contextlib.suppress(subprocess.TimeoutExpired):
                self.proc.wait(timeout=10)
        # The group may outlive its leader (orphaned workers).
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.log.close()


class ServerDoor:
    """Two closed-loop clients in front of a daemon or a gateway."""

    CLIENTS = 2

    def __init__(self, kind: str, workers: int):
        self.kind = kind
        self.workers = workers
        self.servers: list[Server] = []
        self.front: Server | None = None

    def start(self, trace: bool) -> None:
        if self.kind == "daemon":
            self.front = Server(["serve", "--workers", str(self.workers)], "daemon", trace)
            self.servers = [self.front]
        else:
            nodes = [
                Server(["serve", "--workers", "1"], f"node{i}", trace)
                for i in range(self.workers)
            ]
            self.servers = list(nodes)
            for node in nodes:
                node.wait_ready()
            argv = ["gateway"]
            for node in nodes:
                argv += ["--node", node.socket]
            self.front = Server(argv, "gateway", trace)
            self.servers.append(self.front)
        self.front.wait_ready()

    def _loop(self, jobs, count, tracer, expect=None):
        """Closed-loop requests ``0..count-1`` over the stream; records
        ``(latency, outcome, error)`` in request order, with the outcome
        replaced by ``outcome.result == expect[...]`` when ``expect`` is
        given, so the warm pass holds no outcomes."""
        from repro.service import ServiceError
        from repro.service.protocol import ProtocolError

        span = "svc.submit" if self.kind == "daemon" else "fed.submit"
        lock = threading.Lock()
        records = []
        taken = [0]

        def take():
            with lock:
                i = taken[0]
                if i >= count:
                    return None
                taken[0] = i + 1
                return i

        def client():
            with self.front.client(timeout=120) as svc:
                while (i := take()) is not None:
                    job = jobs[i % len(jobs)]
                    t0 = time.perf_counter()
                    outcome, error = None, None
                    try:
                        with tracer.span(span):
                            outcome = svc.submit(job)
                    except (OSError, ServiceError, ProtocolError) as exc:
                        error = f"{type(exc).__name__}: {exc}"
                    lat = time.perf_counter() - t0
                    if expect is not None and outcome is not None:
                        outcome = outcome.result == expect[i % len(jobs)]
                    with lock:
                        records.append((i, lat, outcome, error))

        threads = [threading.Thread(target=client) for _ in range(self.CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records.sort(key=lambda r: r[0])
        return [r[1:] for r in records]

    def cold(self, jobs, tracer):
        return self._loop(jobs, len(jobs), tracer)

    def warm(self, jobs, count, tracer, expect):
        return self._loop(jobs, count, tracer, expect)

    def stats(self) -> dict:
        out = {}
        for server in self.servers:
            with server.client(timeout=30) as svc:
                out[server.name] = svc.stats()
        return out

    def stop(self) -> list:
        # Gateway first, so it never fails jobs over to a stopping node.
        for server in reversed(self.servers):
            server.stop()
        spans = []
        for path in Path.cwd().glob("spans-*.json"):
            spans.extend(json.loads(path.read_text()))
        return spans


# -- summaries and checks -----------------------------------------------


def job_summary(job, outcome, key) -> dict:
    st = outcome.stats or {}
    cache = st.get("cache", {})
    vantage = cache.get("vantage") or {}
    array = st.get("array", {})
    monitors = st.get("policy", {}).get("monitors", {})
    return {
        "key": key,
        "mix": job.mix.name,
        "scheme": job.scheme,
        "accesses": sum(cache.get("accesses", [])),
        "hits": sum(cache.get("hits", [])),
        "misses": sum(cache.get("misses", [])),
        "demotions": sum(vantage.get("demotions", [])),
        "evictions_managed": vantage.get("evictions_managed", 0),
        "evictions_unmanaged": vantage.get("evictions_unmanaged", 0),
        "epochs": st.get("sim", {}).get("epochs", 0),
        "walks": array.get("walks", 0),
        "candidates": array.get("candidates", 0),
        "relocations": array.get("relocations", 0),
        "sampled_accesses": sum(m.get("sampled_accesses", 0) for m in monitors.values()),
        "wall_s": outcome.wall_time_s,
        "trace_counters": outcome.trace_counters,
        "pid": getattr(outcome, "perf_pid", None),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "main"), default="main")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    # A SIGTERM still stops the servers (the ``finally`` below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    tracer = NoSpans()
    if args.trace:
        import tracing

        tracer = tracing.install()

    from repro import traces
    from repro.harness import parallel, results_cache

    import workloads

    wl = workloads.build(args.workload, args.seed, smoke=args.smoke)
    door = LocalDoor(wl.workers) if wl.front == "local" else ServerDoor(wl.front, wl.workers)
    result: dict = {"workload": wl.name, "seed": args.seed, "front": wl.front,
                    "workers": wl.workers, "requests": len(wl.jobs),
                    "steady_exempt": sorted(wl.steady_exempt)}
    # Spans recorded by other processes: workers' (on the outcomes)
    # and the servers' (in their span files).
    foreign_spans: list = []
    try:
        door.start(args.trace)
        result["ready_at"] = time.perf_counter()
        if args.mode == "setup":
            return 0

        with tracer.span("pass", "cold"):
            t0 = time.perf_counter()
            cold = door.cold(wl.jobs, tracer)
            t1 = time.perf_counter()
        server_cold = door.stats()
        cold_results = [o.result if o is not None else None for _, o, _ in cold]
        with tracer.span("pass", "warm"):
            w0 = time.perf_counter()
            warm = door.warm(wl.jobs, WARM_REPS * len(wl.jobs), tracer, cold_results)
            w1 = time.perf_counter()
        server_warm = door.stats()

        keys = [results_cache.job_key(job) for job in wl.jobs]
        first: dict = {}
        fresh = []
        requests = []
        dup_mismatch = 0
        for job, key, (lat, outcome, error) in zip(wl.jobs, keys, cold):
            if outcome is None:
                requests.append([lat, None, False, False])
                continue
            requests.append([lat, outcome.wall_time_s, key not in first, True])
            if key not in first:
                first[key] = outcome.result
                fresh.append(job_summary(job, outcome, key))
            elif first[key] != outcome.result:
                dup_mismatch += 1
        warm_mismatch = sum(1 for _, same, error in warm if error is None and not same)
        failed = [e for _, _, e in cold + warm if e is not None]

        # Spot check: the cheapest fresh job (local), or two seeded
        # picks (servers), re-run inline must match the front door.
        unique = {}
        for job, key in zip(wl.jobs, keys):
            unique.setdefault(key, job)
        if wl.front == "local":
            pick = [min(fresh, key=lambda f: f["wall_s"] or 0.0)["key"]] if fresh else []
        else:
            pick = random.Random(args.seed).sample(sorted(unique), 2)
        spot = []
        for key in pick:
            job = unique[key]
            inline = parallel.execute_job(job).result
            spot.append([job.mix.name, job.scheme, inline == first.get(key)])

        result.update({
            "chunk_pairs": traces.get_store().chunk_pairs,
            "cold": {
                "t0": t0, "t1": t1,
                # [latency, job wall, first request of its job, ok]
                "requests": requests,
                "attempted": len(cold),
                "failed": sum(1 for _, _, e in cold if e is not None),
            },
            "warm": {
                "t0": w0, "t1": w1,
                "latency": [lat for lat, o, e in warm if e is None],
                "attempted": len(warm),
                "failed": sum(1 for _, _, e in warm if e is not None),
            },
            "fresh": fresh,
            "server_stats": {"cold": server_cold, "warm": server_warm},
            "checks": {
                "digest": workloads.digest(wl.jobs, cold_results) if not failed else None,
                "warm_mismatch": warm_mismatch,
                "dup_mismatch": dup_mismatch,
                "spot": spot,
                "errors": failed[:5],
            },
        })
        for _, outcome, _ in cold:
            foreign_spans.extend(getattr(outcome, "perf_spans", None) or [])
    finally:
        foreign_spans.extend(door.stop())
        Path("result.json").write_text(json.dumps(result))
    if args.trace:
        seen = set()
        spans = []
        for span in tracer.spans + foreign_spans:
            if span[0] not in seen:
                seen.add(span[0])
                spans.append(span)
        Path("spans.json").write_text(json.dumps(spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
