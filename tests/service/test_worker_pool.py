"""Concurrency of the supervised worker pool.

Every slot blocks a thread for the whole of each job; the pool must
give its slots threads of their own, so ``--workers N`` (and
``REPRO_WORKERS=N`` for ``run_jobs``) really runs N jobs at once even
beyond the size of the event loop's default executor.
"""

from __future__ import annotations

import asyncio
import os
import time
from types import SimpleNamespace

from repro.service import workers
from repro.service.jobqueue import JobQueue
from repro.service.workers import WorkerPool
from repro.sim import small_system
from repro.harness import SimJob
from repro.workloads import make_mix


def _sleep_job(job):
    time.sleep(1.0)
    return SimpleNamespace(wall_time_s=1.0, seed=job.seed)


def test_slots_beyond_default_executor_run_at_once(monkeypatch):
    """(default-executor size + 2) slots finish that many one-second
    jobs in about one second, not two."""
    slots = min(32, (os.cpu_count() or 1) + 4) + 2
    monkeypatch.setattr(workers, "execute_job", _sleep_job)
    jobs = [
        SimJob(make_mix("sftn", 1), "lru-sa16", small_system(), 1_000, seed=s)
        for s in range(slots)
    ]

    async def drive():
        queue = JobQueue(maxsize=None)
        pool = WorkerPool(slots)
        await pool.start(queue)  # workers fork with the fake job
        try:
            start = time.monotonic()
            entries = [queue.submit(job)[0] for job in jobs]
            done = await asyncio.gather(*(e.future for e in entries))
            return time.monotonic() - start, done
        finally:
            queue.close()
            await pool.stop()

    elapsed, done = asyncio.run(drive())
    assert sorted(o.seed for o in done) == list(range(slots))
    assert elapsed < 1.8, f"{slots} slots took {elapsed:.2f} s"


def _stall_job(job):
    time.sleep(30)


def test_stop_kills_a_busy_worker_at_once(monkeypatch):
    """A worker reads ``stop`` only between jobs, so stopping the pool
    mid-job kills it instead of waiting out the grace period."""
    monkeypatch.setattr(workers, "execute_job", _stall_job)
    job = SimJob(make_mix("sftn", 1), "lru-sa16", small_system(), 1_000, seed=0)

    async def drive():
        queue = JobQueue(maxsize=None)
        pool = WorkerPool(1)
        await pool.start(queue)
        worker = pool._slots[0]
        queue.submit(job)
        deadline = time.monotonic() + 30
        while not worker.busy:
            assert time.monotonic() < deadline, "the job never reached the worker"
            await asyncio.sleep(0.01)
        queue.close()
        start = time.monotonic()
        await pool.stop()
        return time.monotonic() - start, worker.proc

    elapsed, proc = asyncio.run(drive())
    assert elapsed < 1.0, f"stop took {elapsed:.2f} s"
    assert not proc.is_alive()


def test_two_pools_share_one_frozen_heap(monkeypatch):
    """``gc.freeze`` is process-wide: stopping one of two live pools
    leaves the heap frozen, so the other pool's respawned workers
    still fork from it, and the caller's GC is as it was once both
    have stopped."""
    import gc

    at_fork = []

    class Recording(workers.WorkerProcess):
        def __init__(self):
            at_fork.append(gc.get_freeze_count())
            super().__init__()

    monkeypatch.setattr(workers, "WorkerProcess", Recording)
    before = (gc.get_freeze_count(), gc.isenabled())

    async def drive():
        first, second = WorkerPool(1), WorkerPool(1)
        queues = [JobQueue(maxsize=None), JobQueue(maxsize=None)]
        await first.start(queues[0])
        await second.start(queues[1])
        try:
            queues[0].close()
            await first.stop()
            after_first = gc.get_freeze_count()
            await second._respawn(0)
            return after_first
        finally:
            queues[1].close()
            await second.stop()

    after_first = asyncio.run(drive())
    assert after_first > 0
    assert len(at_fork) == 3 and min(at_fork) > 0, at_fork
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_pool_trace_counters_survive_a_killed_worker():
    """A worker SIGKILLed after a job is respawned; the pool folds its
    last trace-store counters into its totals, so ``compiles`` never
    goes backwards in the daemon's stats."""
    import signal

    config = small_system()
    big = SimJob(make_mix("sftn", 1), "lru-sa16", config, 150_000, seed=1)
    small = SimJob(make_mix("sftn", 1), "lru-sa16", config, 2_000, seed=2)

    async def drive():
        queue = JobQueue(maxsize=None)
        pool = WorkerPool(1)
        await pool.start(queue)
        try:
            await queue.submit(big)[0].future
            before = pool.trace_counters()["compiles"]
            victim = pool._slots[0].proc
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(10)
            outcome = await queue.submit(small)[0].future
            after = pool.trace_counters()["compiles"]
            return before, outcome, after, pool.restarts
        finally:
            queue.close()
            await pool.stop()

    before, outcome, after, restarts = asyncio.run(drive())
    assert restarts == 1
    assert 0 < outcome.trace_counters["compiles"] < before
    assert after == before + outcome.trace_counters["compiles"]
