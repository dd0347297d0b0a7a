"""End-to-end daemon tests: a real asyncio server on a real Unix
socket, real forked workers, real client sockets.

The acceptance guarantees under test:

- an outcome returned by ``ServiceClient.submit`` is bitwise-identical
  to a serial ``run_mix`` with the same inputs;
- SIGKILLing a worker mid-job retries the job transparently (the
  client still gets the identical result) while other clients keep
  being served;
- duplicate submissions from concurrent clients coalesce onto one
  simulation (``dedupe_hits`` == 1) and the ``stats`` op exports the
  PR-2 stats-tree JSON shape.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import threading
import time
from dataclasses import replace

import pytest

from repro.harness import SimJob, run_mix
from repro.service import (
    ExperimentDaemon,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.service import protocol
from repro.sim import small_system
from repro.workloads import make_mix

INSTRUCTIONS = 6_000
#: Long enough that a SIGKILL lands mid-simulation on any host.
LONG_INSTRUCTIONS = 1_500_000


def _job(seed: int = 0, instructions: int = INSTRUCTIONS) -> SimJob:
    return SimJob(
        make_mix("sftn", 1),
        "lru-sa16",
        small_system(),
        instructions,
        seed=seed,
    )


class DaemonHarness:
    """A daemon running on a background thread's event loop."""

    def __init__(self, tmp_path, workers: int, queue_size: int = 16):
        self.socket_path = tmp_path / "svc.sock"
        self.config = ServiceConfig(
            socket_path=self.socket_path,
            tcp=None,
            workers=workers,
            queue_size=queue_size,
        )
        self.daemon: ExperimentDaemon | None = None
        self._started = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        assert self._started.wait(timeout=30), "daemon failed to start"
        deadline = time.monotonic() + 30
        while not self.socket_path.exists():
            assert time.monotonic() < deadline, "socket never appeared"
            time.sleep(0.01)

    def _run(self):
        async def main():
            self.daemon = ExperimentDaemon(self.config)
            await self.daemon.start()
            self._started.set()
            try:
                await self.daemon._shutdown.wait()
            finally:
                await self.daemon.stop()

        asyncio.run(main())

    def client(self) -> ServiceClient:
        return ServiceClient(socket_path=self.socket_path).connect()

    def stop(self):
        if self.thread.is_alive():
            try:
                with self.client() as svc:
                    svc.shutdown()
            except (OSError, ServiceError):
                pass
            self.thread.join(timeout=30)
        assert not self.thread.is_alive(), "daemon thread failed to exit"


@pytest.fixture
def svc_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_RESULTS_CACHE", raising=False)
    monkeypatch.delenv("REPRO_SERVICE_ADDR", raising=False)
    return tmp_path


@pytest.fixture
def daemon(svc_env):
    harness = DaemonHarness(svc_env, workers=2)
    yield harness
    harness.stop()


@pytest.fixture
def single_worker_daemon(svc_env):
    harness = DaemonHarness(svc_env, workers=1, queue_size=4)
    yield harness
    harness.stop()


class TestResults:
    def test_submit_is_bitwise_identical_to_serial_run_mix(self, daemon):
        job = _job(seed=3)
        with daemon.client() as svc:
            outcome = svc.submit(job)
        serial = run_mix(
            job.mix, job.scheme, job.config, job.instructions, seed=job.seed
        )
        assert outcome.result == serial.result
        fraction = None
        if hasattr(serial.cache, "managed_eviction_fraction"):
            fraction = serial.cache.managed_eviction_fraction()
        assert outcome.managed_eviction_fraction == fraction

    def test_shared_mix_job_round_trips_through_daemon(self, daemon):
        """Shared-region mixes (and the reuse-aware scheme) survive the
        pickle across the worker fork and dedupe/cache keying: the
        daemon's outcome is bitwise-identical to a serial run."""
        from repro.workloads import SharedRegionSpec, make_shared_mix

        spec = SharedRegionSpec(
            kind="producer-consumer", lines=512, fraction=0.3
        )
        job = SimJob(
            make_shared_mix("sftn", 1, spec),
            "reuse-aware-z4/52",
            small_system(),
            INSTRUCTIONS,
            seed=5,
        )
        with daemon.client() as svc:
            outcome = svc.submit(job)
        serial = run_mix(
            job.mix, job.scheme, job.config, job.instructions, seed=job.seed
        )
        assert outcome.result == serial.result

    def test_second_submission_served_from_results_cache(self, daemon):
        job = _job(seed=4)
        with daemon.client() as svc:
            first = svc.submit(job)
            ticket = svc.submit(job, wait=False)
            second = svc.submit(job)
            tree = svc.stats()
        assert ticket["cached"] is True
        assert first.result == second.result
        assert tree["service"]["queue"]["cache_hits"] >= 2

    def test_ping_status_and_unknown_op(self, daemon):
        with daemon.client() as svc:
            assert svc.ping()
            summary = svc.status()
            assert summary["workers_alive"] == 2
            assert summary["queue_depth"] == 0
            with pytest.raises(ServiceError, match="unknown op"):
                svc._request({"op": "frobnicate"}, "ok")


class TestVantageConfigKeys:
    def test_vantage_config_outcome_never_served_for_default_job(
        self, single_worker_daemon
    ):
        """The daemon caches and dedupes by job key, which covers the
        job's ``vantage_config``: a default submission after an
        overridden one of the same mix is simulated on its own."""
        from repro.core import VantageConfig
        from repro.harness.parallel import execute_job

        default_job = SimJob(
            make_mix("sftn", 1),
            "vantage-z4/52",
            small_system(l2_bytes=64 * 1024, epoch_cycles=20_000),
            30_000,
            seed=0,
        )
        variant_job = replace(
            default_job, vantage_config=VantageConfig(unmanaged_fraction=0.3)
        )
        with single_worker_daemon.client() as svc:
            variant = svc.submit(variant_job)
            served = svc.submit(default_job)
        inline = execute_job(default_job)
        assert variant.result != inline.result, "the override changed nothing"
        assert served.result == inline.result


class TestInvalidJobs:
    @pytest.mark.parametrize("instructions", [0, -5])
    def test_non_positive_instructions_rejected_and_not_cached(
        self, single_worker_daemon, svc_env, instructions
    ):
        """A job with no instructions to run fails with a
        ``ServiceError``; nothing lands in the results cache."""
        with single_worker_daemon.client() as svc:
            with pytest.raises(ServiceError, match="instructions_per_core"):
                svc.submit(_job(instructions=instructions))
            assert svc.ping()  # the daemon keeps serving
        assert not list((svc_env / "cache").rglob("*.pkl"))

    @pytest.mark.parametrize("period", [0, -5])
    def test_non_positive_sample_period_rejected_and_not_cached(
        self, single_worker_daemon, svc_env, period
    ):
        """A size-sample period below one cycle fails with a
        ``ServiceError`` instead of hanging the worker (negative) or
        caching an empty series (zero)."""
        with single_worker_daemon.client() as svc:
            with pytest.raises(ServiceError, match="size_sample_cycles"):
                svc.submit(replace(_job(), size_sample_cycles=period))
            assert svc.ping()  # the daemon keeps serving
        assert not list((svc_env / "cache").rglob("*.pkl"))


class TestConcurrentClients:
    def test_duplicate_submissions_coalesce_once(self, single_worker_daemon):
        """Two clients submit the identical job while the single
        worker is busy with a blocker: exactly one simulation runs
        and the dedupe counter reads 1."""
        daemon = single_worker_daemon
        blocker = _job(seed=1, instructions=600_000)
        dup = _job(seed=2)
        with daemon.client() as svc:
            svc.submit(blocker, wait=False)

        results: dict[int, object] = {}

        def submit_from_own_client(idx: int):
            with daemon.client() as svc:
                results[idx] = svc.submit(dup)

        threads = [
            threading.Thread(target=submit_from_own_client, args=(i,))
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert sorted(results) == [0, 1]
        serial = run_mix(
            dup.mix, dup.scheme, dup.config, dup.instructions, seed=dup.seed
        ).result
        assert results[0].result == serial
        assert results[1].result == serial
        with daemon.client() as svc:
            tree = svc.stats()
        queue_stats = tree["service"]["queue"]
        assert queue_stats["dedupe_hits"] == 1
        assert queue_stats["submitted"] == 2  # blocker + one dup entry


class TestWorkerSupervision:
    def test_sigkilled_worker_is_retried_and_queue_keeps_serving(
        self, single_worker_daemon
    ):
        daemon = single_worker_daemon
        victim_job = _job(seed=7, instructions=LONG_INSTRUCTIONS)
        with daemon.client() as svc:
            ticket = svc.submit(victim_job, wait=False)
            job_id = ticket["id"]
            deadline = time.monotonic() + 60
            while svc.status(job_id)["state"] != protocol.RUNNING:
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.02)

        time.sleep(0.2)  # let the simulation get properly underway
        pool = daemon.daemon.pool
        victims = [w.pid for w in pool._slots.values() if w is not None]
        assert victims
        os.kill(victims[0], signal.SIGKILL)

        # While the daemon respawns and re-runs the victim job, a
        # second client keeps getting served.
        with daemon.client() as svc:
            other = svc.submit(_job(seed=8))
        serial_other = run_mix(
            _job(seed=8).mix,
            "lru-sa16",
            small_system(),
            INSTRUCTIONS,
            seed=8,
        ).result
        assert other.result == serial_other

        # The victim job must still complete with the identical result.
        with daemon.client() as svc:
            final = None
            for event in svc.watch(job_id, timeout=300):
                final = event
            assert final["state"] == protocol.DONE
            assert final["retries"] >= 1
            # Dedupe lets us fetch the outcome: resubmitting the same
            # job is now a results-cache hit, not a new simulation.
            outcome = svc.submit(victim_job)
            tree = svc.stats()
        serial = run_mix(
            victim_job.mix,
            victim_job.scheme,
            victim_job.config,
            victim_job.instructions,
            seed=victim_job.seed,
        ).result
        assert outcome.result == serial
        workers = tree["service"]["workers"]
        assert workers["restarts"] >= 1
        assert workers["retries"] >= 1


class TestBackpressureAndCancel:
    def test_queue_full_is_reported_not_fatal(self, svc_env):
        daemon = DaemonHarness(svc_env, workers=1, queue_size=1)
        try:
            with daemon.client() as svc:
                svc.submit(_job(seed=1, instructions=300_000), wait=False)
                deadline = time.monotonic() + 60
                while daemon.daemon.queue.in_flight() == 0:
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                svc.submit(_job(seed=2), wait=False)  # fills the queue
                with pytest.raises(ServiceError, match="queue_full"):
                    svc.submit(_job(seed=3), wait=False)
                # The connection survives backpressure.
                assert svc.ping()
        finally:
            daemon.stop()

    def test_cancel_queued_job(self, single_worker_daemon):
        daemon = single_worker_daemon
        with daemon.client() as svc:
            svc.submit(_job(seed=1, instructions=300_000), wait=False)
            ticket = svc.submit(_job(seed=2), wait=False)
            svc.cancel(ticket["id"])
            status = svc.status(ticket["id"])
            assert status["state"] == protocol.CANCELLED
            with pytest.raises(ServiceError):
                svc.cancel(ticket["id"])  # already terminal


class TestProtocolRobustness:
    def test_garbage_line_gets_error_reply_and_connection_survives(
        self, daemon
    ):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(30)
        sock.connect(str(daemon.socket_path))
        fh = sock.makefile("rwb")
        fh.write(b"this is not json\n")
        fh.flush()
        reply = json.loads(fh.readline())
        assert reply["op"] == "error"
        fh.write(protocol.encode({"op": "ping"}))
        fh.flush()
        assert json.loads(fh.readline())["op"] == "pong"
        sock.close()

    def test_version_mismatch_rejected(self, daemon):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(30)
        sock.connect(str(daemon.socket_path))
        fh = sock.makefile("rwb")
        fh.write(json.dumps({"v": 999, "op": "ping"}).encode() + b"\n")
        fh.flush()
        reply = json.loads(fh.readline())
        assert reply["op"] == "error"
        assert "version" in reply["error"]
        sock.close()


class TestStatsTree:
    def test_stats_op_exports_telemetry_tree_schema(self, daemon):
        job = _job(seed=11)
        with daemon.client() as svc:
            svc.submit(job)
            tree = svc.stats()
        # Same JSON shape as `repro run-mix --stats-json`: nested
        # groups of plain values, JSON-round-trippable.
        assert json.loads(json.dumps(tree)) == tree
        service = tree["service"]
        for key in ("uptime_s", "connections_total", "queue", "workers"):
            assert key in service
        queue_stats = service["queue"]
        assert queue_stats["completed"] >= 1
        assert queue_stats["depth"] == 0
        workers = service["workers"]
        assert workers["configured"] == 2
        # Distribution leaves carry the PR-2 summary shape.
        wall = workers["job_wall_time"]
        assert {"count", "total", "mean", "min", "max"} <= set(wall)
        assert wall["count"] >= 1
        # Workers piggyback their trace-store counters.
        assert workers["trace_store"].get("compiles", 0) >= 0
        # The harness group mirrors the batch schema roots.
        assert "results_cache" in tree["harness"]

    def test_workers_fork_from_a_frozen_heap(self, daemon):
        """The pool freezes its heap at the fork point (so the workers'
        GC passes leave the pages they share alone) and says so."""
        with daemon.client() as svc:
            workers = svc.stats()["service"]["workers"]
        assert workers["frozen_objects"] > 0

    def test_stats_tree_names_follow_schema(self, svc_env):
        """Every service stat name passes the tree's [a-z0-9_] rule
        and the schema walk (the golden-format contract)."""

        async def scenario():
            daemon = ExperimentDaemon(
                ServiceConfig(
                    socket_path=svc_env / "x.sock", tcp=None, workers=1
                )
            )
            rows = daemon.stats_tree().schema()
            names = [name for name, _, _ in rows]
            assert "service.queue.depth" in names
            assert "service.queue.dedupe_hits" in names
            assert "service.workers.job_wall_time" in names
            assert "harness.results_cache.corrupt_entries" in names
            # register_stats into a fresh group must not collide.
            from repro.telemetry import StatGroup

            daemon.register_stats(StatGroup("service"))

        asyncio.run(scenario())


@pytest.fixture
def shm_daemon(svc_env, monkeypatch):
    """A daemon with ``REPRO_TRACE_SHM`` on.  The env flag must be set
    -- and the process-global trace store reset -- before the harness
    starts: resident workers fork at ``pool.start()``, so they inherit
    both, and a store warmed by earlier tests would serve the job's
    chunks as ``mem_hits`` instead of mapping the published files."""
    from repro import traces
    from repro.traces import store as store_mod

    if store_mod.shm_root() is None:
        pytest.skip("no /dev/shm on this platform")
    monkeypatch.setenv("REPRO_TRACE_SHM", "1")
    traces.reset_store()
    harness = DaemonHarness(svc_env, workers=2)
    yield harness
    harness.stop()
    traces.release_shared()


class TestSharedMemoryFabric:
    def test_daemon_publishes_workers_attach_shutdown_unlinks(
        self, shm_daemon, monkeypatch
    ):
        """The resident-service side of ``REPRO_TRACE_SHM``: submit
        publishes the job's traces, the worker maps them (``shm_hits``
        in its piggybacked counters), the outcome is bitwise-identical
        to a serial no-shm run, and a clean daemon shutdown removes
        every trace directory the server published."""
        from repro.traces import store as store_mod

        def trace_dirs():
            return set(store_mod.SHM_ROOT.glob("??/*"))

        before = trace_dirs()
        job = _job(seed=8)
        with shm_daemon.client() as svc:
            outcome = svc.submit(job)
        published = trace_dirs() - before
        assert published, "daemon did not publish the job's traces"
        assert outcome.trace_counters["shm_hits"] > 0

        with monkeypatch.context() as m:
            m.setenv("REPRO_TRACE_SHM", "0")
            serial = run_mix(
                job.mix, job.scheme, job.config, job.instructions, seed=job.seed
            )
        assert outcome.result == serial.result

        shm_daemon.stop()
        leftovers = trace_dirs() & published
        assert not leftovers, f"daemon shutdown leaked {sorted(leftovers)}"


class TestBatchSubmit:
    def test_batch_outcomes_bitwise_identical_and_slot_aligned(self, daemon):
        """One submit_batch carrying fresh, duplicate and cached slots:
        every outcome equals its serial run_mix, and the cached/deduped
        vectors are slot-aligned."""
        warm = _job(seed=21)
        with daemon.client() as svc:
            svc.submit(warm)  # slot 3's result is now in the cache
            jobs = [_job(seed=22), _job(seed=23), _job(seed=22), warm]
            batch = svc.submit_batch(jobs).raise_on_error()
        assert len(batch.outcomes) == 4
        for job, outcome in zip(jobs, batch.outcomes):
            serial = run_mix(
                job.mix, job.scheme, job.config, job.instructions,
                seed=job.seed,
            )
            assert outcome.result == serial.result
        # Slot 2 duplicates slot 0: it coalesced onto slot 0's entry
        # (or, if slot 0 finished first, onto its cached result).
        assert batch.deduped[2] or batch.cached[2]
        assert not batch.deduped[0] and not batch.cached[0]
        # Slot 3 was simulated before the batch.
        assert batch.cached[3]
        with daemon.client() as svc:
            tree = svc.stats()
        queue_stats = tree["service"]["queue"]
        assert queue_stats["batches"] >= 1
        assert queue_stats["batch_jobs"] >= 4

    def test_batch_rejects_non_job_slot(self, daemon):
        with daemon.client() as svc:
            with pytest.raises(ServiceError, match="slot 1"):
                svc.submit_batch([_job(seed=24), "not a job"])
            # The connection survives the rejection.
            assert svc.ping()


class TestVersionedPeers:
    @pytest.mark.parametrize("peer_version", [0, 2])
    def test_wrong_version_peer_gets_structured_error(
        self, daemon, peer_version
    ):
        """A v0 or v2 peer against the v1 daemon: the error reply is
        structured (code + both versions), not just prose."""
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(30)
        sock.connect(str(daemon.socket_path))
        fh = sock.makefile("rwb")
        fh.write(
            json.dumps({"v": peer_version, "op": "ping"}).encode() + b"\n"
        )
        fh.flush()
        reply = json.loads(fh.readline())
        assert reply["op"] == "error"
        assert reply["code"] == "version_mismatch"
        assert reply["client_version"] == peer_version
        assert reply["server_version"] == protocol.PROTOCOL_VERSION
        assert "version" in reply["error"]
        # The daemon keeps serving correctly-versioned requests on
        # the same connection.
        fh.write(protocol.encode({"op": "ping"}))
        fh.flush()
        assert json.loads(fh.readline())["op"] == "pong"
        sock.close()
