"""Supervised persistent simulation workers.

The one worker pool: the daemon keeps a fixed set of worker
*processes* resident, so each worker's in-process trace-chunk LRU and
imported modules stay warm across requests from every client, and
``run_jobs`` drives the same pool in process for the length of one
sweep.

Each worker is one forked process running :func:`_worker_main`: a
loop that receives a pickled :class:`~repro.harness.parallel.SimJob`
over a duplex pipe, runs the exact
:func:`~repro.harness.parallel.execute_job` code path that
``run_jobs`` runs inline and a serial ``run_mix`` uses, and sends the
outcome back (with its trace-store counters piggybacked for daemon
telemetry).

Supervision lives in :class:`WorkerPool`, the daemon's local
execution backend (the gateway's is
:class:`~repro.federation.gateway.NodePool`): one asyncio task per
worker slot pulls entries off a
:class:`~repro.service.jobqueue.JobQueue`, publishes the job's traces
to the shared chunk layer (``REPRO_TRACE_SHM``, through
:func:`~repro.harness.parallel.publish_traces`; the pool's process
owns the ``/dev/shm`` files it creates), and drives its
worker through a thread of the pool's own executor, one per slot
(pipe reads block).  Failure is contained per job:

- a worker that *crashes* (SIGKILL, OOM, segfault) quarantines only
  itself -- the supervisor respawns the process and re-queues the
  entry at the front of its priority class, up to
  ``max_retries`` times, while every other slot keeps serving;
- a job that *times out* kills the worker (the only way to stop a
  runaway fork) and is retried under the same bound;
- a job that raises a Python exception is a deterministic failure:
  it is reported to the client without retry.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import signal
import time
from concurrent.futures import ThreadPoolExecutor

from repro import traces
from repro.harness import parallel
from repro.harness.parallel import execute_job
from repro.service.jobqueue import QueueClosed
from repro.telemetry import Distribution, StatGroup


class WorkerCrashed(Exception):
    """The worker process died before returning a result."""


class JobTimeout(Exception):
    """The job exceeded the daemon's per-job wall-time budget."""


def _worker_main(conn) -> None:
    """Worker-process loop: jobs in, outcomes out, until ``stop``."""
    # The parent owns interrupt handling: a terminal Ctrl-C lands on
    # the whole process group and must not spray worker tracebacks.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (OSError, ValueError):
        pass
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "stop":
            break
        job = msg[1]
        try:
            outcome = execute_job(job)
        except Exception as exc:  # deterministic job failure
            reply = ("err", f"{type(exc).__name__}: {exc}")
        else:
            reply = ("ok", outcome)
        try:
            conn.send((*reply, traces.get_store().counters()))
        except (BrokenPipeError, OSError):
            break
    conn.close()


class WorkerProcess:
    """One resident worker and its parent-side pipe end."""

    def __init__(self):
        ctx = multiprocessing.get_context()
        self._conn, child = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_main, args=(child,), daemon=True
        )
        self.proc.start()
        child.close()
        #: Latest trace-store counters reported by this worker.
        self.trace_counters: dict[str, int] = {}
        self.jobs_done = 0
        #: A job was sent and its reply not yet read (the worker reads
        #: ``stop`` only between jobs).
        self.busy = False

    @property
    def pid(self) -> int | None:
        return self.proc.pid

    def run(self, job, timeout: float | None):
        """Execute ``job`` on this worker (blocking; call in a thread).

        Raises :class:`WorkerCrashed` if the process dies and
        :class:`JobTimeout` if ``timeout`` seconds elapse first; the
        caller decides whether to retry and must discard this worker
        after either.
        """
        self.busy = True
        try:
            self._conn.send(("job", job))
        except (BrokenPipeError, OSError):
            raise WorkerCrashed(f"worker {self.pid} pipe is closed") from None
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            step = 0.5
            if deadline is not None:
                step = min(step, deadline - time.monotonic())
                if step <= 0:
                    raise JobTimeout(
                        f"job exceeded {timeout:.1f}s on worker {self.pid}"
                    )
            # ``poll`` also wakes on EOF, so a SIGKILLed worker is
            # noticed immediately, not at the timeout.
            if self._conn.poll(max(step, 0.01)):
                break
            if not self.proc.is_alive() and not self._conn.poll(0.01):
                raise WorkerCrashed(f"worker {self.pid} died")
        try:
            msg = self._conn.recv()
        except (EOFError, OSError):
            raise WorkerCrashed(f"worker {self.pid} died mid-reply") from None
        self.busy = False
        status, payload, counters = msg
        self.trace_counters = counters
        self.jobs_done += 1
        if status == "err":
            raise RuntimeError(payload)
        return payload

    def stop(self, grace: float = 2.0) -> None:
        """Ask an idle worker to exit, escalating to SIGKILL after
        ``grace``; a busy one would read ``stop`` only after its job, so
        it is killed at once."""
        if self.busy:
            self.kill()
            return
        try:
            self._conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(grace)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(grace)
        self._conn.close()

    def kill(self) -> None:
        """Hard-stop a runaway or crashed worker."""
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(2.0)
        self._conn.close()


class WorkerPool:
    """Asyncio supervisor over a fixed set of worker slots."""

    def __init__(
        self,
        workers: int,
        job_timeout: float | None = None,
        max_retries: int = 2,
    ):
        if workers < 1:
            raise ValueError("worker count must be positive")
        self.queue = None
        self.workers = workers
        self.job_timeout = job_timeout
        self.max_retries = max_retries
        self._slots: dict[int, WorkerProcess | None] = {}
        self._tasks: list[asyncio.Task] = []
        self._stopping = False
        # Every slot blocks one thread for the whole of each job, so
        # the slots get threads of their own: the loop's default
        # executor (min(32, cpu + 4) threads) would cap how many jobs
        # run at once.
        self._runner = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="worker-slot"
        )
        # Shared chunk layer (REPRO_TRACE_SHM): the pool's process is
        # the publishing owner; its workers only ever map.  The lock
        # serialises publish work (the store is not thread-safe); the
        # memo keeps resubmitted mixes from re-walking their chunk
        # prefixes.
        self._publish_lock = asyncio.Lock()
        self._published_traces: dict[str, int] = {}
        # Telemetry (pulled by the daemon's service stats group).
        self.restarts = 0
        self.retries = 0
        self.timeouts = 0
        #: ``gc.get_freeze_count()`` at the fork point (0 before start).
        self.frozen_objects = 0
        # Whether stop() unfreezes: only a heap this pool froze.
        self._thaw = False
        self.job_wall_time = Distribution(
            "job_wall_time", "per-job wall time as measured by workers"
        )

    async def start(self, queue) -> None:
        """Spawn the workers and start serving ``queue``."""
        self.queue = queue
        if traces.shm_enabled():
            # Reclaim chunk files orphaned by crashed runs before
            # workers fork; live publishers' files are never touched.
            traces.scavenge()
        # The fork point: workers inherit what they run from this
        # process and share its pages.  Freezing the heap moves every
        # object into the GC's permanent generation, so the workers'
        # collections never write to the pages they inherited (a
        # written page is copied and stops being shared).
        parallel.preload()
        self._thaw = gc.get_freeze_count() == 0
        gc.freeze()
        self.frozen_objects = gc.get_freeze_count()
        loop = asyncio.get_running_loop()
        for slot in range(self.workers):
            self._slots[slot] = await loop.run_in_executor(None, WorkerProcess)
            self._tasks.append(
                asyncio.create_task(
                    self._supervise(slot), name=f"worker-slot-{slot}"
                )
            )

    def register_stats(self, group: StatGroup) -> None:
        """The ``workers`` stats group (PR-2 schema)."""
        group.stat("configured", lambda: self.workers, "worker slots")
        group.stat("alive", self.alive, "worker processes currently alive")
        group.stat("restarts", lambda: self.restarts, "workers respawned after a crash or timeout")
        group.stat("retries", lambda: self.retries, "jobs re-queued after their worker died")
        group.stat("timeouts", lambda: self.timeouts, "jobs killed by the per-job timeout")
        group.stat("frozen_objects", lambda: self.frozen_objects, "objects in the GC's permanent generation when the workers forked")
        group.stat("job_wall_time", self.job_wall_time.value, "per-job wall time distribution, seconds")
        group.stat("trace_store", self.trace_counters, "workers' trace-chunk store counters, summed")

    def summary(self) -> dict:
        """Backend fields of the server's ``status`` summary."""
        return {"workers_alive": self.alive()}

    def trace_counters(self) -> dict[str, int]:
        """Workers' trace-store counters, summed across slots."""
        total: dict[str, int] = {}
        for worker in self._slots.values():
            if worker is None:
                continue
            for name, value in worker.trace_counters.items():
                total[name] = total.get(name, 0) + value
        return total

    def alive(self) -> int:
        return sum(
            1
            for w in self._slots.values()
            if w is not None and w.proc.is_alive()
        )

    async def _respawn(self, slot: int) -> WorkerProcess:
        loop = asyncio.get_running_loop()
        old = self._slots[slot]
        if old is not None:
            await loop.run_in_executor(None, old.kill)
        self.restarts += 1
        worker = await loop.run_in_executor(None, WorkerProcess)
        self._slots[slot] = worker
        return worker

    async def _publish_job_traces(self, job) -> None:
        """Publish ``job``'s traces to the shared chunk layer before
        it reaches a worker (no-op unless ``REPRO_TRACE_SHM=1``).

        Runs in the default executor so a cold compile never stalls
        the event loop; other clients keep submitting and watching
        while the layer warms up.  Best-effort: a failed publish just
        means workers fall back to their private layers.
        """
        if not traces.shm_enabled():
            return
        loop = asyncio.get_running_loop()
        async with self._publish_lock:
            # Through the module attribute, so a wrapper installed on
            # ``parallel.publish_traces`` sees every publish.
            await loop.run_in_executor(
                None, parallel.publish_traces, [job], self._published_traces
            )

    async def _supervise(self, slot: int) -> None:
        loop = asyncio.get_running_loop()
        worker = self._slots[slot]
        while not self._stopping:
            try:
                entry = await self.queue.next()
            except QueueClosed:
                break
            self.queue.mark_running(entry)
            try:
                await self._publish_job_traces(entry.job)
                outcome = await loop.run_in_executor(
                    self._runner, worker.run, entry.job, self.job_timeout
                )
            except (WorkerCrashed, JobTimeout) as exc:
                if isinstance(exc, JobTimeout):
                    self.timeouts += 1
                if self._stopping:
                    self.queue.mark_failed(entry, str(exc))
                    break
                worker = await self._respawn(slot)
                if entry.retries < self.max_retries:
                    self.retries += 1
                    self.queue.requeue(entry)
                else:
                    self.queue.mark_failed(
                        entry,
                        f"{exc} (gave up after {entry.retries} retries)",
                    )
            except RuntimeError as exc:
                # The job itself raised in the worker: deterministic,
                # not retried; the worker is healthy and kept.
                self.queue.mark_failed(entry, str(exc))
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                # Supervisor-side surprise (bad reply shape, pickle
                # trouble): fail the job but keep the slot serving.
                self.queue.mark_failed(entry, f"internal error: {exc!r}")
                worker = await self._respawn(slot)
            else:
                if outcome.wall_time_s is not None:
                    self.job_wall_time.record(outcome.wall_time_s)
                self.queue.mark_done(entry, outcome)

    async def stop(self) -> None:
        """Stop supervising (the queue is closed), then stop the
        workers.  Published chunk files outlive the pool: its owner
        process releases them (the daemon does so at shutdown)."""
        self._stopping = True
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        loop = asyncio.get_running_loop()
        await asyncio.gather(*(
            loop.run_in_executor(None, worker.stop)
            for worker in self._slots.values()
            if worker is not None
        ))
        self._slots = dict.fromkeys(self._slots)
        # A slot thread still inside ``run`` returns once its worker
        # is gone.
        self._runner.shutdown(wait=False)
        # Leave the host process's GC as start() found it (run_jobs
        # and in-process daemons outlive their pool); a heap the
        # caller froze itself stays frozen.
        if self._thaw:
            gc.unfreeze()
            self._thaw = False
