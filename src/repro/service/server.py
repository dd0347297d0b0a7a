"""The protocol server: one asyncio JSON-lines front end, two backends.

One :class:`ExperimentDaemon` owns the
:class:`~repro.service.jobqueue.JobQueue`, an execution backend and
the listening sockets (a Unix socket always; a TCP endpoint too when
``REPRO_SERVICE_ADDR`` or ``ServiceConfig.tcp`` names one).  The
backend drains the queue:

- :class:`~repro.service.workers.WorkerPool` (the daemon, ``repro
  serve``) runs jobs on supervised local worker processes;
- :class:`~repro.federation.gateway.NodePool` (the gateway, ``repro
  gateway``, via the :class:`~repro.federation.gateway.FederationGateway`
  subclass) forwards them to a fleet of daemons.

Each client connection is an independent coroutine speaking
:mod:`repro.service.protocol`.  Every typed request field (``job``,
``jobs``, ``priority``, ``id``, ``count``, ``interval``) is checked
once, before dispatch; a malformed line or field is answered with an
``error`` line and the connection keeps serving, so one confused
client cannot take the server down.

Results flow, the same for both backends: admission first consults
the on-disk results cache (the same
:func:`~repro.harness.results_cache.job_key` contract as the batch
harness -- a restart still reuses every finished simulation), then
coalesces onto an identical queued/running entry, then enqueues.  A
finished outcome is persisted through
:func:`~repro.harness.parallel.record_outcome` by the queue's
``on_done`` hook before any waiter wakes, so the server and
``run_jobs`` share one cache (a gateway persists without counting the
job as executed here: it ran on a node).

Telemetry: :meth:`ExperimentDaemon.register_stats` publishes the
server's group (``service`` for a daemon: queue depth, in-flight,
dedupe/cache hits, retries, restarts, per-job wall-time distribution,
worker trace-store counters; ``federation`` for a gateway) in the
PR-2 stats-tree schema; the ``stats`` op snapshots it in the exact
shape ``repro run-mix --stats-json`` writes, and a ``watch`` without
an ``id`` streams periodic snapshots of it.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import traces
from repro.harness import parallel, results_cache
from repro.harness.parallel import SimJob, default_workers
from repro.service import protocol
from repro.service.jobqueue import JobQueue, QueueClosed, QueueFull
from repro.telemetry import StatGroup

#: Default seconds between the snapshots of an id-less ``watch``.
WATCH_INTERVAL = 1.0


@dataclass
class ServiceConfig:
    """Everything the daemon needs to come up."""

    socket_path: Path = field(default_factory=protocol.default_socket)
    tcp: tuple[str, int] | None = field(default_factory=protocol.tcp_addr)
    workers: int = field(default_factory=default_workers)
    #: Queue capacity (``None``: unbounded, as on a gateway).
    queue_size: int | None = 256
    job_timeout: float | None = None
    max_retries: int = 2
    use_cache: bool = True


def _unpack_job(blob, message: str) -> SimJob:
    try:
        job = protocol.unpack(blob) if isinstance(blob, str) else None
    except protocol.ProtocolError:
        job = None
    if not isinstance(job, SimJob):
        raise protocol.ProtocolError(message)
    return job


def parse_request(msg: dict) -> dict:
    """Check and convert every typed request field, once, for every op.

    Returns a copy of ``msg`` with ``job`` / ``jobs`` unpacked to
    :class:`~repro.harness.parallel.SimJob` objects and the numeric
    fields converted; raises :class:`~repro.service.protocol.ProtocolError`
    naming the bad field.
    """
    op = msg["op"]
    req = dict(msg)
    for name, kind in (
        ("id", int), ("priority", int), ("count", int), ("interval", float)
    ):
        if name in msg:
            try:
                req[name] = kind(msg[name])
            except (TypeError, ValueError):
                raise protocol.ProtocolError(
                    f"{op}: field {name!r} must be a number, got {msg[name]!r}"
                ) from None
    if op == "submit":
        req["job"] = _unpack_job(
            msg.get("job"), "submit carries no SimJob payload"
        )
    elif op == "submit_batch":
        jobs = msg.get("jobs")
        if not isinstance(jobs, list) or not jobs:
            raise protocol.ProtocolError("submit_batch carries no job list")
        req["jobs"] = [
            _unpack_job(blob, f"submit_batch slot {i} is not a SimJob")
            for i, blob in enumerate(jobs)
        ]
    return req


class ExperimentDaemon:
    """Resident multi-client protocol server over one job queue.

    ``pool`` is the execution backend: by default a local
    :class:`~repro.service.workers.WorkerPool` sized by ``config``.  A
    backend provides ``start(queue)``, ``stop()``, ``summary()`` and
    ``register_stats(group)``.
    """

    #: ``role`` field of ``status`` and ``ping`` replies.
    role = "daemon"
    #: Name and description of this server's top stats group.
    stats_group = ("service", "resident experiment service")

    def __init__(self, config: ServiceConfig | None = None, pool=None):
        self.config = config or ServiceConfig()
        self.queue = JobQueue(
            maxsize=self.config.queue_size, on_done=self._record
        )
        if pool is None:
            # Imported here: the gateway subclasses this server and
            # never runs a local pool.
            from repro.service.workers import WorkerPool

            pool = WorkerPool(
                workers=self.config.workers,
                job_timeout=self.config.job_timeout,
                max_retries=self.config.max_retries,
            )
        self.pool = pool
        self.started_at = time.monotonic()
        self._servers: list[asyncio.base_events.Server] = []
        self._shutdown = asyncio.Event()
        # Telemetry counters.
        self.connections_total = 0
        self.connections_open = 0
        self.cache_hits = 0
        self.protocol_errors = 0
        self.batches = 0
        self.batch_jobs = 0

    # -- telemetry ------------------------------------------------------

    def _register_server_stats(self, group: StatGroup) -> None:
        group.stat("uptime_s", lambda: time.monotonic() - self.started_at, f"seconds since {self.role} start")
        group.stat("connections_total", lambda: self.connections_total, "client connections accepted")
        group.stat("connections_open", lambda: self.connections_open, "client connections currently open")
        group.stat("protocol_errors", lambda: self.protocol_errors, "malformed request lines answered with errors")

    def register_stats(self, group: StatGroup) -> None:
        """Register the service telemetry group (PR-2 schema)."""
        queue = self.queue
        self._register_server_stats(group)
        q = group.group("queue", "priority job queue")
        q.stat("depth", queue.depth, "jobs waiting to run")
        q.stat("in_flight", queue.in_flight, "jobs running on workers")
        q.stat("submitted", lambda: queue.submitted, "unique jobs accepted")
        q.stat("dedupe_hits", lambda: queue.dedupe_hits, "submissions coalesced onto an identical active job")
        q.stat("cache_hits", lambda: self.cache_hits, "submissions served from the on-disk results cache")
        q.stat("completed", lambda: queue.completed, "jobs finished successfully")
        q.stat("failed", lambda: queue.failed, "jobs that exhausted retries or raised")
        q.stat("cancelled", lambda: queue.cancelled, "jobs cancelled before running")
        q.stat("rejected", lambda: queue.rejected, "submissions refused by backpressure (queue full)")
        q.stat("batches", lambda: self.batches, "submit_batch requests accepted")
        q.stat("batch_jobs", lambda: self.batch_jobs, "job slots carried by submit_batch requests")
        self.pool.register_stats(
            group.group("workers", "supervised persistent worker pool")
        )

    def stats_tree(self) -> StatGroup:
        """The server's stats tree (its own group + harness groups)."""
        name, description = self.stats_group
        root = StatGroup("root", f"experiment {self.role} statistics")
        self.register_stats(root.group(name, description))
        parallel.register_stats(
            root.group("harness", f"{self.role}-process harness counters")
        )
        return root

    # -- request handlers -----------------------------------------------

    def _summary(self) -> dict:
        return {
            "op": "status",
            "role": self.role,
            "uptime_s": time.monotonic() - self.started_at,
            "queue_depth": self.queue.depth(),
            "in_flight": self.queue.in_flight(),
            "active": self.queue.active(),
            "submitted": self.queue.submitted,
            "dedupe_hits": self.queue.dedupe_hits,
            "cache_hits": self.cache_hits,
            "completed": self.queue.completed,
            "failed": self.queue.failed,
            **self.pool.summary(),
        }

    async def _reply(self, writer: asyncio.StreamWriter, msg: dict) -> None:
        writer.write(protocol.encode(msg))
        await writer.drain()

    def _record(self, entry, outcome) -> None:
        """The queue's ``on_done`` hook: persist a finished outcome."""
        parallel.record_outcome(
            entry.key, outcome, use_cache=self.config.use_cache
        )

    def _admit(self, job: SimJob, priority: int):
        """Results-cache check, then queue coalescing, then enqueue.

        Returns ``(ticket, entry, cached_outcome)``; exactly one of
        ``entry`` / ``cached_outcome`` is set on success, both are
        ``None`` when the ticket is an error dict instead.
        """
        if self.config.use_cache:
            key = results_cache.job_key(job)
            cached = results_cache.load(key)
            if cached is not None:
                self.cache_hits += 1
                ticket = {
                    "id": 0,
                    "key": key,
                    "state": protocol.DONE,
                    "deduped": False,
                    "cached": True,
                }
                return ticket, None, cached
        try:
            entry, deduped = self.queue.submit(job, priority=priority)
        except QueueFull:
            error = protocol.error(
                "queue_full", depth=self.queue.depth(),
                maxsize=self.queue.maxsize,
            )
            return error, None, None
        except QueueClosed:
            return protocol.error("shutting_down"), None, None
        ticket = {
            "id": entry.id,
            "key": entry.key,
            "state": entry.state,
            "deduped": deduped,
            "cached": False,
        }
        return ticket, entry, None

    async def _handle_submit(self, req: dict, writer) -> None:
        ticket, entry, cached = self._admit(req["job"], req.get("priority", 0))
        if entry is None and cached is None:
            await self._reply(writer, ticket)  # an error dict
            return
        await self._reply(writer, {"op": "submitted", **ticket})
        if not req.get("wait", True):
            return
        if cached is not None:
            await self._reply(
                writer,
                {"op": "result", "id": 0, "outcome": protocol.pack(cached)},
            )
            return
        try:
            outcome = await asyncio.shield(entry.future)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            await self._reply(
                writer, protocol.error(str(exc), id=entry.id, state=entry.state)
            )
            return
        await self._reply(
            writer,
            {
                "op": "result",
                "id": entry.id,
                "outcome": protocol.pack(outcome),
            },
        )

    async def _handle_submit_batch(self, req: dict, writer) -> None:
        """One request, a whole sweep: admit every job, then stream
        per-slot ``result`` lines as each finishes (cache hits first,
        completion order after that -- ``index`` maps a line back to
        its slot), ending with a ``batch_done`` summary."""
        jobs = req["jobs"]
        wait = req.get("wait", True)
        priority = req.get("priority", 0)
        self.batches += 1
        self.batch_jobs += len(jobs)
        ids: list[int] = []
        cached_flags: list[bool] = []
        deduped_flags: list[bool] = []
        ready: dict[int, object] = {}
        errors: dict[int, str] = {}
        entries: dict[int, object] = {}
        for i, job in enumerate(jobs):
            ticket, entry, cached = self._admit(job, priority)
            if entry is None and cached is None:
                errors[i] = ticket.get("error", "rejected")
                ids.append(0)
                cached_flags.append(False)
                deduped_flags.append(False)
                continue
            ids.append(ticket["id"])
            cached_flags.append(ticket["cached"])
            deduped_flags.append(ticket["deduped"])
            if cached is not None:
                ready[i] = cached
            else:
                entries[i] = entry
        await self._reply(
            writer,
            {
                "op": "batch_submitted",
                "count": len(jobs),
                "ids": ids,
                "cached": cached_flags,
                "deduped": deduped_flags,
            },
        )
        if not wait:
            return
        completed = failed = 0
        for i in sorted(ready):
            completed += 1
            await self._reply(
                writer,
                {
                    "op": "result",
                    "index": i,
                    "id": ids[i],
                    "outcome": protocol.pack(ready[i]),
                },
            )
        for i in sorted(errors):
            failed += 1
            await self._reply(
                writer,
                {"op": "result", "index": i, "id": 0, "error": errors[i]},
            )
        # Two batch slots holding identical jobs share one queue entry
        # (and so one future); shield each slot separately so a closed
        # connection never cancels the underlying simulation.
        shields = {i: asyncio.shield(e.future) for i, e in entries.items()}
        remaining = dict(entries)
        while remaining:
            await asyncio.wait(
                set(shields[i] for i in remaining),
                return_when=asyncio.FIRST_COMPLETED,
            )
            for i in [i for i, e in remaining.items() if e.future.done()]:
                entry = remaining.pop(i)
                line = {"op": "result", "index": i, "id": entry.id}
                try:
                    line["outcome"] = protocol.pack(entry.future.result())
                    completed += 1
                except Exception as exc:
                    line["error"] = str(exc)
                    failed += 1
                await self._reply(writer, line)
        await self._reply(
            writer,
            {"op": "batch_done", "completed": completed, "failed": failed},
        )

    async def _handle_watch(self, req: dict, writer) -> None:
        if "id" not in req:
            await self._watch_stats(req, writer)
            return
        entry = self.queue.get(req["id"])
        if entry is None:
            await self._reply(writer, protocol.error("unknown_job"))
            return
        events: asyncio.Queue = asyncio.Queue()
        entry.watchers.append(events)
        try:
            event = entry.describe()
            await self._reply(writer, {"op": "event", **event})
            while event["state"] not in protocol.TERMINAL_STATES:
                event = await events.get()
                await self._reply(writer, {"op": "event", **event})
        finally:
            entry.watchers.remove(events)

    async def _watch_stats(self, req: dict, writer) -> None:
        """``watch`` without an id: stream periodic stats-tree
        snapshots (``count`` bounds them; ``interval`` seconds apart)."""
        count = req.get("count")
        count = None if count is None else max(1, count)
        interval = req.get("interval", WATCH_INTERVAL)
        sent = 0
        while count is None or sent < count:
            await self._reply(
                writer,
                {
                    "op": "event",
                    "kind": self.stats_group[0],
                    "tree": self.stats_tree().snapshot(),
                },
            )
            sent += 1
            if count is not None and sent >= count:
                return
            await asyncio.sleep(max(0.05, interval))

    async def _handle_one(self, req: dict, writer) -> bool:
        """Dispatch one parsed request; False ends the connection."""
        op = req["op"]
        if op == "submit":
            await self._handle_submit(req, writer)
        elif op == "submit_batch":
            await self._handle_submit_batch(req, writer)
        elif op == "status":
            if "id" in req:
                entry = self.queue.get(req["id"])
                if entry is None:
                    await self._reply(writer, protocol.error("unknown_job"))
                else:
                    await self._reply(
                        writer, {"op": "status", **entry.describe()}
                    )
            else:
                await self._reply(writer, self._summary())
        elif op == "watch":
            await self._handle_watch(req, writer)
        elif op == "cancel":
            try:
                entry = self.queue.cancel(req.get("id", -1))
            except KeyError:
                await self._reply(writer, protocol.error("unknown_job"))
            except ValueError as exc:
                await self._reply(writer, protocol.error(str(exc)))
            else:
                await self._reply(writer, {"op": "ok", "id": entry.id})
        elif op == "stats":
            await self._reply(
                writer, {"op": "stats", "tree": self.stats_tree().snapshot()}
            )
        elif op == "ping":
            await self._reply(writer, {"op": "pong", "role": self.role})
        elif op == "shutdown":
            await self._reply(writer, {"op": "ok"})
            self.request_shutdown()
            return False
        else:
            self.protocol_errors += 1
            await self._reply(writer, protocol.error(f"unknown op {op!r}"))
        return True

    async def _handle_client(self, reader, writer) -> None:
        self.connections_total += 1
        self.connections_open += 1
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._reply(
                        writer, protocol.error("line exceeds the protocol cap")
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    req = parse_request(protocol.decode(line))
                except protocol.ProtocolError as exc:
                    self.protocol_errors += 1
                    extra = {}
                    if isinstance(exc, protocol.VersionMismatch):
                        # Structured: both versions, so whichever peer
                        # sees the error knows exactly who needs
                        # upgrading.
                        extra = dict(
                            code="version_mismatch",
                            client_version=exc.peer_version,
                            server_version=exc.our_version,
                        )
                    await self._reply(writer, protocol.error(str(exc), **extra))
                    continue
                if not await self._handle_one(req, writer):
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self.connections_open -= 1
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    # -- lifecycle ------------------------------------------------------

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def start(self) -> None:
        """Start the backend, then bind sockets (no blocking wait)."""
        await self.pool.start(self.queue)
        path = self.config.socket_path
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.exists():
            path.unlink()
        self._servers.append(
            await asyncio.start_unix_server(
                self._handle_client, path=str(path),
                limit=protocol.MAX_LINE_BYTES,
            )
        )
        if self.config.tcp is not None:
            host, port = self.config.tcp
            self._servers.append(
                await asyncio.start_server(
                    self._handle_client, host=host, port=port,
                    limit=protocol.MAX_LINE_BYTES,
                )
            )

    async def stop(self) -> None:
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
        reason = f"{self.role} shutting down"
        self.queue.close(reason)
        await self.pool.stop()
        self.queue.fail_running(reason)
        # Workers are gone: remove the /dev/shm trace directories this
        # process created (even if the flag was flipped off while the
        # daemon ran).
        traces.release_shared()
        with contextlib.suppress(OSError):
            self.config.socket_path.unlink()

    async def serve(self, install_signals: bool = True) -> None:
        """Run until ``shutdown`` (op, SIGTERM or SIGINT)."""
        await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError, ValueError):
                    loop.add_signal_handler(signum, self.request_shutdown)
        try:
            await self._shutdown.wait()
        finally:
            await self.stop()


def serve(config: ServiceConfig | None = None) -> None:
    """Blocking entry point: run a daemon in this process."""
    asyncio.run(ExperimentDaemon(config).serve())
