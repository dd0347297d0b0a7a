"""Supervised persistent simulation workers.

The one worker pool: the daemon keeps a fixed set of worker
*processes* resident, so each worker's in-process trace-chunk LRU and
imported modules stay warm across requests from every client, and
``run_jobs`` drives the same pool in process for the length of one
sweep.  A sweep's queue is a closed plan (sealed: it takes no new
submissions), so there each job goes out with the keys of every trace
it or a still-queued job reads, and the worker first drops every
other trace from its store: no job it can still receive reads them.

Each worker is one forked process running :func:`_worker_main`: a
loop that receives a pickled :class:`~repro.harness.parallel.SimJob`
(and that keep set, or ``None`` to keep everything) over a duplex
pipe, runs the exact
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
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro import traces
from repro.harness import parallel
from repro.harness.parallel import execute_job
from repro.service.jobqueue import QueueClosed
from repro.telemetry import Distribution, StatGroup


# -- the shared frozen heap ---------------------------------------------
#
# ``gc.freeze`` is process-wide, so two pools alive in one process
# share one frozen heap: the first pool's stop must not thaw it under
# the other, whose respawned workers still fork from it.  Pools that
# froze the heap are counted, and only the last of them to stop thaws
# it -- and only when the heap was not already frozen (by the caller)
# when the first of them froze it.
_freeze_lock = threading.Lock()
_freeze_holders = 0
_thaw_on_release = False


def _hold_frozen_heap() -> int:
    """Freeze the heap for one more pool; returns the freeze count."""
    global _freeze_holders, _thaw_on_release
    with _freeze_lock:
        if _freeze_holders == 0:
            _thaw_on_release = gc.get_freeze_count() == 0
        _freeze_holders += 1
        gc.freeze()
        return gc.get_freeze_count()


def _release_frozen_heap() -> None:
    """One pool is done with the frozen heap; the last one thaws it if
    the first one froze it."""
    global _freeze_holders
    with _freeze_lock:
        _freeze_holders -= 1
        if _freeze_holders == 0 and _thaw_on_release:
            gc.unfreeze()


def _add_counters(total: dict[str, int], counters: dict[str, int]) -> None:
    for name, value in counters.items():
        total[name] = total.get(name, 0) + value


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
        _, job, keep = msg
        if keep is not None:
            # Before the job, so its compiles reuse the freed blocks.
            traces.get_store().retain(keep)
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

    def run(self, job, timeout: float | None, keep=None):
        """Execute ``job`` on this worker (blocking; call in a thread),
        after dropping from its trace store every trace whose key is
        not in ``keep`` (``None`` keeps them all).

        Raises :class:`WorkerCrashed` if the process dies and
        :class:`JobTimeout` if ``timeout`` seconds elapse first; the
        caller decides whether to retry and must discard this worker
        after either.
        """
        self.busy = True
        try:
            self._conn.send(("job", job, keep))
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
        # Trace keys per job key, for the keep sets of a sealed queue
        # (one sweep's jobs, so bounded by its plan).
        self._job_traces: dict[str, frozenset[str]] = {}
        # Last trace-store counters of workers replaced or stopped, so
        # the pool's totals never go backwards.
        self._gone_counters: dict[str, int] = {}
        # Telemetry (pulled by the daemon's service stats group).
        self.restarts = 0
        self.retries = 0
        self.timeouts = 0
        #: ``gc.get_freeze_count()`` at the fork point (0 before start).
        self.frozen_objects = 0
        # Whether this pool holds the process's frozen heap (between
        # start() and stop()).
        self._holds_heap = False
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
        self.frozen_objects = _hold_frozen_heap()
        self._holds_heap = True
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
        """Trace-store counters summed over every worker this pool
        has run: the live slots' latest reports plus the last reports
        of the workers it replaced or stopped."""
        total = dict(self._gone_counters)
        for worker in self._slots.values():
            if worker is not None:
                _add_counters(total, worker.trace_counters)
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
            _add_counters(self._gone_counters, old.trace_counters)
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

    def _trace_keys(self, entry) -> frozenset[str]:
        """The store keys of the traces ``entry``'s job reads (memoised
        per job key).  Factories that are not trace specs never reach
        the store, so they have no key to keep."""
        keys = self._job_traces.get(entry.key)
        if keys is None:
            store = traces.get_store()
            job = entry.job
            try:
                factories = job.mix.trace_factories(job.seed)
            except Exception:
                # The job fails in the worker and reads nothing.
                factories = ()
            keys = frozenset(
                store.key_of(spec)
                for spec in factories
                if isinstance(spec, traces.TraceSpec)
            )
            self._job_traces[entry.key] = keys
        return keys

    def _trace_keep(self, entry) -> frozenset[str] | None:
        """The traces a worker keeps before running ``entry``: those
        of ``entry`` and of every still-queued entry; ``None`` (keep
        everything) unless the queue is sealed.

        Only a sealed queue knows every job it will dispatch.  The
        daemon's queue stays open: its clients submit a mix's sibling
        schemes one by one, so its workers keep their LRU warm.
        """
        if not self.queue.sealed:
            return None
        keep = set(self._trace_keys(entry))
        for queued in self.queue.queued():
            keep |= self._trace_keys(queued)
        return frozenset(keep)

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
                keep = self._trace_keep(entry)
                await self._publish_job_traces(entry.job)
                outcome = await loop.run_in_executor(
                    self._runner, worker.run, entry.job, self.job_timeout, keep
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
        stopped = [w for w in self._slots.values() if w is not None]
        await asyncio.gather(*(
            loop.run_in_executor(None, worker.stop) for worker in stopped
        ))
        for worker in stopped:
            _add_counters(self._gone_counters, worker.trace_counters)
        self._slots = dict.fromkeys(self._slots)
        # A slot thread still inside ``run`` returns once its worker
        # is gone.
        self._runner.shutdown(wait=False)
        # Leave the host process's GC as the first pool found it
        # (run_jobs and in-process daemons outlive their pool) once no
        # other pool still forks from the frozen heap; a heap the
        # caller froze itself stays frozen.
        if self._holds_heap:
            self._holds_heap = False
            _release_frozen_heap()
