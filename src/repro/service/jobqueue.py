"""Priority job queue with content-keyed dedupe and backpressure.

The queue is the daemon's single source of truth for job state.  A
submission is hashed through the same
:func:`repro.harness.results_cache.job_key` the batch harness uses,
so identical jobs from different clients coalesce onto one
:class:`JobEntry` -- one simulation, many waiters -- exactly as
``run_jobs`` dedupes within a sweep.  Entries are ordered by
``(priority, sequence)``: lower priority numbers run first, FIFO
within a priority, and a crash-retried entry is re-queued ahead of
its priority class so a waiter is never pushed to the back of the
line by someone else's backlog.

Capacity is bounded: submissions beyond ``maxsize`` raise
:class:`QueueFull`, which the server surfaces as a ``queue_full``
error -- backpressure the client can see, instead of an unbounded
daemon heap.  A gateway's queue is unbounded (``maxsize=None``): its
backpressure stays at the nodes.
"""

from __future__ import annotations

import asyncio
import heapq
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.harness import results_cache
from repro.service import protocol


class QueueFull(Exception):
    """The queue is at capacity; the client should retry later."""


class QueueClosed(Exception):
    """The daemon is shutting down; no more work will be dispatched."""


@dataclass
class JobEntry:
    """One deduplicated unit of work and everything observing it."""

    id: int
    key: str
    job: object
    priority: int
    state: str = protocol.QUEUED
    retries: int = 0
    #: Client submissions coalesced onto this entry (>= 1).
    refs: int = 1
    error: str | None = None
    #: The federation node running the entry (gateway queues only).
    node: str | None = None
    submitted_at: float = field(default_factory=time.monotonic)
    started_at: float | None = None
    finished_at: float | None = None
    #: Resolved with the outcome (or an exception) exactly once.
    future: asyncio.Future = field(default_factory=asyncio.Future)
    #: ``watch`` streams: each watcher gets every state transition.
    watchers: list[asyncio.Queue] = field(default_factory=list)

    def describe(self) -> dict:
        """The wire-visible view of this entry (no payloads)."""
        return {
            "id": self.id,
            "key": self.key,
            "state": self.state,
            "priority": self.priority,
            "node": self.node,
            "retries": self.retries,
            "refs": self.refs,
            "error": self.error,
            "wall_time_s": (
                self.finished_at - self.started_at
                if self.finished_at is not None and self.started_at is not None
                else None
            ),
        }


class JobQueue:
    """Bounded priority queue of :class:`JobEntry` objects."""

    def __init__(
        self,
        maxsize: int | None = 256,
        history: int = 1024,
        on_done: Callable[[JobEntry, object], None] | None = None,
    ):
        if maxsize is not None and maxsize < 1:
            raise ValueError("queue maxsize must be positive")
        self.maxsize = maxsize
        self.history = history
        #: Called with ``(entry, outcome)`` before the entry's waiters
        #: wake; the server persists outcomes to the results cache
        #: here, so a resubmission never misses both cache and queue.
        self.on_done = on_done
        self._heap: list[tuple[int, int, int]] = []  # (priority, seq, id)
        self._entries: dict[int, JobEntry] = {}  # every known id
        self._active: dict[str, JobEntry] = {}  # key -> queued/running entry
        self._next_id = 1
        self._next_seq = 0
        self._front_seq = 0  # decrements: retries jump their priority class
        self._closed = False
        self._sealed = False
        self._wakeup: asyncio.Event = asyncio.Event()
        # Telemetry counters (pulled by the service stats tree).
        self.submitted = 0
        self.dedupe_hits = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self.rejected = 0

    # -- submission -----------------------------------------------------

    def submit(self, job, priority: int = 0) -> tuple[JobEntry, bool]:
        """Enqueue ``job`` (or coalesce onto an identical active one).

        Returns ``(entry, deduped)``.  Raises :class:`QueueFull` at
        capacity and :class:`QueueClosed` during shutdown.
        """
        if self._closed or self._sealed:
            raise QueueClosed
        key = results_cache.job_key(job)
        active = self._active.get(key)
        if active is not None:
            self.dedupe_hits += 1
            active.refs += 1
            return active, True
        if self.maxsize is not None and self.depth() >= self.maxsize:
            self.rejected += 1
            raise QueueFull
        entry = JobEntry(
            id=self._next_id, key=key, job=job, priority=priority
        )
        self._next_id += 1
        self.submitted += 1
        self._entries[entry.id] = entry
        self._active[key] = entry
        self._push(entry, front=False)
        self._prune_history()
        return entry, False

    def _push(self, entry: JobEntry, front: bool) -> None:
        if front:
            self._front_seq -= 1
            seq = self._front_seq
        else:
            self._next_seq += 1
            seq = self._next_seq
        heapq.heappush(self._heap, (entry.priority, seq, entry.id))
        self._wakeup.set()

    def requeue(self, entry: JobEntry, push: bool = True) -> None:
        """Put a retried entry back in the queued state: at the head of
        its class, or (``push=False``) left to the caller that keeps
        driving it -- the gateway's failover loop waits for a node
        slot, not for the heap."""
        entry.state = protocol.QUEUED
        entry.retries += 1
        self._notify(entry)
        if push:
            self._push(entry, front=True)

    # -- dispatch -------------------------------------------------------

    async def next(self) -> JobEntry:
        """Wait for, remove and return the next runnable entry."""
        while True:
            while self._heap:
                _, _, entry_id = heapq.heappop(self._heap)
                entry = self._entries.get(entry_id)
                # Cancelled entries stay in the heap (lazy deletion).
                if entry is not None and entry.state == protocol.QUEUED:
                    return entry
            if self._closed:
                raise QueueClosed
            self._wakeup.clear()
            await self._wakeup.wait()

    # -- state transitions ----------------------------------------------

    def _notify(self, entry: JobEntry) -> None:
        event = entry.describe()
        for watcher in entry.watchers:
            watcher.put_nowait(event)

    def mark_running(self, entry: JobEntry) -> None:
        entry.state = protocol.RUNNING
        if entry.started_at is None:
            entry.started_at = time.monotonic()
        self._notify(entry)

    def _finish(
        self, entry: JobEntry, state: str, outcome=None,
        error: BaseException | None = None,
    ) -> None:
        """Move ``entry`` to terminal ``state`` and resolve its future
        with ``outcome``, or with ``error`` for waiters to raise."""
        entry.state = state
        entry.finished_at = time.monotonic()
        self._active.pop(entry.key, None)
        self._notify(entry)
        if not entry.future.done():
            if error is None:
                entry.future.set_result(outcome)
            else:
                entry.future.set_exception(error)
        if error is not None:
            # A future nobody awaits (fire-and-forget submit) must not
            # warn at teardown.
            entry.future.exception()

    def mark_done(self, entry: JobEntry, outcome) -> None:
        if self.on_done is not None:
            self.on_done(entry, outcome)
        self.completed += 1
        self._finish(entry, protocol.DONE, outcome=outcome)

    def mark_failed(self, entry: JobEntry, message: str) -> None:
        entry.error = message
        self.failed += 1
        self._finish(entry, protocol.FAILED, error=RuntimeError(message))

    def _cancel(self, entry: JobEntry, message: str, error) -> None:
        entry.error = message
        self.cancelled += 1
        self._finish(entry, protocol.CANCELLED, error=error)

    def cancel(self, entry_id: int) -> JobEntry:
        """Cancel a queued entry; running/terminal entries refuse."""
        entry = self._entries.get(entry_id)
        if entry is None:
            raise KeyError(entry_id)
        if entry.state != protocol.QUEUED:
            raise ValueError(f"job {entry_id} is {entry.state}, not queued")
        self._cancel(
            entry, "cancelled", RuntimeError(f"job {entry_id} cancelled")
        )
        return entry

    def fail_running(self, message: str) -> None:
        """Fail every running entry (shutdown mid-job)."""
        for entry in list(self._active.values()):
            if entry.state == protocol.RUNNING:
                self.mark_failed(entry, message)

    def seal(self) -> None:
        """Take no more submissions; what is queued still runs.

        A sealed queue is a closed plan (``run_jobs`` submits its whole
        sweep, then seals): every job it will ever dispatch is running
        or in :meth:`queued`, which is what lets a worker drop the
        traces no such job reads.
        """
        self._sealed = True

    @property
    def sealed(self) -> bool:
        """Can the queue take no new submissions?"""
        return self._sealed or self._closed

    def close(self, reason: str = "daemon shutting down") -> list[JobEntry]:
        """Stop accepting work; cancel and return queued entries."""
        self._closed = True
        dropped = []
        for entry in list(self._entries.values()):
            if entry.state == protocol.QUEUED:
                self._cancel(entry, reason, QueueClosed())
                dropped.append(entry)
        self._wakeup.set()
        return dropped

    # -- inspection -----------------------------------------------------

    def get(self, entry_id: int) -> JobEntry | None:
        return self._entries.get(entry_id)

    def depth(self) -> int:
        """Entries waiting to run (cancelled heap residue excluded)."""
        return len(self.queued())

    def queued(self) -> list[JobEntry]:
        """The entries waiting to run."""
        return [
            e for e in self._active.values() if e.state == protocol.QUEUED
        ]

    def active(self) -> int:
        """Deduplicated entries queued or running."""
        return len(self._active)

    def in_flight(self) -> int:
        return sum(
            1
            for e in self._active.values()
            if e.state == protocol.RUNNING
        )

    def _prune_history(self) -> None:
        """Bound the terminal-entry record a resident daemon keeps."""
        if len(self._entries) <= self.history:
            return
        for entry_id in sorted(self._entries):
            entry = self._entries[entry_id]
            if entry.state in protocol.TERMINAL_STATES and not entry.watchers:
                del self._entries[entry_id]
                if len(self._entries) <= self.history:
                    return
