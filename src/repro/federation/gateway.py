"""The federation gateway: one scheduler over N experiment daemons.

A :class:`FederationGateway` is the same protocol server as a daemon
-- :class:`~repro.service.server.ExperimentDaemon`, one
:class:`~repro.service.jobqueue.JobQueue`, every client op (``submit``
/ ``submit_batch`` / ``status`` / ``watch`` / ``cancel`` / ``stats`` /
``ping`` / ``shutdown``) -- with a different execution backend:
instead of local workers, a :class:`NodePool` drains the queue by
*routing* jobs to a fleet of daemons:

- **placement**: jobs are consistent-hash routed by their content key
  (:func:`~repro.harness.results_cache.job_key`) through the
  rendezvous ring (:mod:`repro.federation.ring`), so duplicate
  submissions from any client land on the same node and coalesce in
  that node's queue; at most ``per_node_inflight`` jobs are forwarded
  to one node at a time;
- **dedupe, three layers deep**: the server's results-cache check
  first (a job computed on node A is a hit when resubmitted anywhere,
  even if node A is gone), then the gateway queue's coalescing of
  identical queued/in-flight jobs, then the target node's queue;
- **failover**: a connection that dies mid-job marks the node dead
  and requeues the job to the next node in the ring -- the same
  bounded-retry discipline :class:`~repro.service.workers.WorkerPool`
  applies to crashed workers, one level up.  Health probes (periodic
  ``ping`` + ``status``) drive the membership table for new work and
  revive nodes that come back;
- **federated stores**: outcomes returned by any node are persisted
  by the server into the gateway's on-disk results cache (the
  standard ``REPRO_CACHE_DIR`` format), so the fleet's results
  federate without the nodes sharing a filesystem.

The gateway's queue is unbounded, so it never answers ``queue_full``
itself: backpressure stays at the nodes, and a node's ``queue_full``
fails the job over like a dead connection.  Telemetry is a
``federation`` stats group in the PR-2 tree (routed / dedupe /
failover counters, ring state, per-node queue depth); an id-less
``watch`` streams periodic snapshots of it, as on a daemon.
"""

from __future__ import annotations

import asyncio
import contextlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.federation.ring import ALIVE, Membership, NodeInfo
from repro.harness import results_cache
from repro.service import protocol
from repro.service.jobqueue import QueueClosed
from repro.service.protocol import default_gateway_socket, parse_node
from repro.service.server import ExperimentDaemon, ServiceConfig
from repro.telemetry import StatGroup

#: Seconds to wait for a node to accept a connection or answer a probe.
CONNECT_TIMEOUT = 10.0


class NodeUnavailable(Exception):
    """The node refused, reset or dropped the connection -- the job
    should fail over to the next node in the ring."""


class NodeRejected(Exception):
    """The node answered an error for this job (deterministic failure
    or malformed payload) -- not retryable elsewhere."""


@dataclass
class GatewayConfig:
    """Everything the gateway needs to come up."""

    socket_path: Path = field(default_factory=default_gateway_socket)
    tcp: tuple[str, int] | None = None
    #: Backend daemon address specs (``host:port`` or socket paths).
    nodes: list[str] = field(default_factory=list)
    health_interval: float = 1.0
    #: Consecutive failed probes before a node is marked dead.
    fail_threshold: int = 2
    #: Concurrent jobs forwarded per node (≈ the node's worker count
    #: plus some queue headroom).
    per_node_inflight: int = 8
    #: Failover hops tolerated per job before it is failed.
    max_retries: int = 2
    use_cache: bool = True


class NodePool:
    """Execution backend that forwards queued jobs to daemon nodes."""

    def __init__(self, config: GatewayConfig):
        if not config.nodes:
            raise ValueError("a gateway needs at least one --node")
        self.config = config
        nodes = [
            NodeInfo(name=f"node{i}", addr=parse_node(spec))
            for i, spec in enumerate(config.nodes)
        ]
        self.membership = Membership(
            nodes, fail_threshold=config.fail_threshold
        )
        self._sems = {
            node.name: asyncio.Semaphore(config.per_node_inflight)
            for node in nodes
        }
        self.queue = None
        self._dispatch_task: asyncio.Task | None = None
        self._health_task: asyncio.Task | None = None
        self._entry_tasks: set[asyncio.Task] = set()
        # Telemetry counters (pulled by the federation stats group).
        self.routed = 0
        self.failover_requeues = 0
        self.health_probes = 0

    # -- backend interface ----------------------------------------------

    async def start(self, queue) -> None:
        """Probe every node once, then start the health loop and the
        dispatcher serving ``queue``."""
        self.queue = queue
        await asyncio.gather(
            *(self._probe(n) for n in self.membership.nodes()),
            return_exceptions=True,
        )
        self._health_task = asyncio.create_task(
            self._health_loop(), name="federation-health"
        )
        self._dispatch_task = asyncio.create_task(
            self._dispatch(), name="federation-dispatch"
        )

    async def stop(self) -> None:
        tasks = [self._health_task, self._dispatch_task, *self._entry_tasks]
        for task in tasks:
            if task is not None:
                task.cancel()
        await asyncio.gather(
            *(t for t in tasks if t is not None), return_exceptions=True
        )
        self._health_task = self._dispatch_task = None

    def summary(self) -> dict:
        """Backend fields of the server's ``status`` summary."""
        return {
            "nodes": self.membership.rows(),
            "routed": self.routed,
            "failover_requeues": self.failover_requeues,
        }

    def register_stats(self, group: StatGroup) -> None:
        """Routing, ring and per-node stats of the ``federation`` group."""
        group.stat("routed", lambda: self.routed, "jobs forwarded to a federation node")
        group.stat("failover_requeues", lambda: self.failover_requeues, "jobs requeued to another node after theirs died")
        group.stat("health_probes", lambda: self.health_probes, "node health probes performed")
        group.stat("in_flight", lambda: sum(n.in_flight for n in self.membership.nodes()), "jobs currently forwarded to nodes")
        ring = group.group("ring", "rendezvous ring and membership")
        ring.stat("nodes", lambda: len(self.membership), "configured federation nodes")
        ring.stat("alive", self.membership.alive, "nodes whose last health probe succeeded")
        ring.stat("dead", self.membership.dead, "nodes past the failure threshold")
        nodes = group.group("nodes", "per-node routing and health state")
        for node in self.membership.nodes():
            sub = nodes.group(node.name, f"daemon at {node.addr_text()}")
            sub.stat("alive", lambda n=node: n.state == ALIVE, "last probe succeeded")
            sub.stat("routed", lambda n=node: n.routed, "jobs routed to this node")
            sub.stat("in_flight", lambda n=node: n.in_flight, "jobs currently forwarded here")
            sub.stat("failures", lambda n=node: n.failures, "consecutive failed probes")
            sub.stat("queue_depth", lambda n=node: n.summary.get("queue_depth", -1), "node queue depth at the last probe (-1 before any)")
            sub.stat("workers_alive", lambda n=node: n.summary.get("workers_alive", -1), "node worker processes at the last probe (-1 before any)")

    # -- routing and forwarding -----------------------------------------

    async def _dispatch(self) -> None:
        """Hand every dequeued entry to its own routing task; the
        per-node slots, not the queue, bound what is forwarded."""
        while True:
            try:
                entry = await self.queue.next()
            except QueueClosed:
                return
            task = asyncio.create_task(self._run_entry(entry))
            self._entry_tasks.add(task)
            task.add_done_callback(self._entry_tasks.discard)

    async def _run_entry(self, entry) -> None:
        """Drive one job to a terminal state, failing over across
        nodes under the bounded-retry discipline."""
        queue = self.queue
        tried: set[str] = set()
        while True:
            if entry.state == protocol.CANCELLED:
                return
            name = self.membership.route(entry.key, exclude=tried)
            if name is None:
                queue.mark_failed(
                    entry,
                    f"no live federation nodes (of {len(self.membership)})",
                )
                return
            node = self.membership.node(name)
            async with self._sems[name]:
                if entry.state == protocol.CANCELLED:
                    return
                node.in_flight += 1
                node.routed += 1
                self.routed += 1
                entry.node = name
                queue.mark_running(entry)
                try:
                    outcome = await self._forward(node, entry)
                except NodeUnavailable as exc:
                    failure = exc
                except NodeRejected as exc:
                    queue.mark_failed(entry, str(exc))
                    return
                else:
                    queue.mark_done(entry, outcome)
                    return
                finally:
                    node.in_flight -= 1
            # Node died under the job: requeue to the next in the
            # ring, same bounded discipline as WorkerPool retries.
            self.failover_requeues += 1
            tried.add(name)
            self.membership.note_failure(name, fatal=True)
            entry.node = None
            queue.requeue(entry, push=False)
            if entry.retries > self.config.max_retries:
                queue.mark_failed(
                    entry,
                    f"{failure} (gave up after {entry.retries} failovers)",
                )
                return

    @contextlib.asynccontextmanager
    async def _connect(self, node: NodeInfo):
        """A dedicated connection to ``node``, closed on exit."""
        if isinstance(node.addr, tuple):
            host, port = node.addr
            coro = asyncio.open_connection(
                host=host, port=port, limit=protocol.MAX_LINE_BYTES
            )
        else:
            coro = asyncio.open_unix_connection(
                path=str(node.addr), limit=protocol.MAX_LINE_BYTES
            )
        reader, writer = await asyncio.wait_for(coro, CONNECT_TIMEOUT)
        try:
            yield reader, writer
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _forward(self, node: NodeInfo, entry):
        """Run one job on ``node`` over a dedicated connection and
        return its outcome."""
        try:
            async with self._connect(node) as (reader, writer):
                writer.write(protocol.encode({
                    "op": "submit",
                    "job": protocol.pack(entry.job),
                    "priority": entry.priority,
                    "wait": True,
                }))
                await writer.drain()
                await self._read_node_line(node, reader, "submitted")
                result = await self._read_node_line(node, reader, "result")
        except (OSError, asyncio.TimeoutError) as exc:
            # Refused, reset or timed out: the node, not the job.
            raise NodeUnavailable(
                f"{node.name} ({node.addr_text()}) unreachable: {exc!r}"
            ) from None
        try:
            return protocol.unpack(result.get("outcome"))
        except (protocol.ProtocolError, AttributeError) as exc:
            raise NodeRejected(f"{node.name} answered garbage: {exc}") from None

    @staticmethod
    async def _read_node_line(node: NodeInfo, reader, op: str) -> dict:
        """The node's next line, which must be an ``op`` reply."""
        line = await reader.readline()
        if not line:
            raise NodeUnavailable(
                f"{node.name} dropped the connection mid-job"
            )
        try:
            msg = protocol.decode(line)
        except protocol.VersionMismatch as exc:
            raise NodeRejected(
                f"{node.name} speaks protocol v{exc.peer_version!r}, "
                f"gateway speaks v{exc.our_version}"
            ) from None
        except protocol.ProtocolError as exc:
            raise NodeRejected(f"{node.name} answered garbage: {exc}") from None
        if msg["op"] == "error":
            error = msg.get("error", "unknown error")
            # Backpressure and shutdown are the node's problem, not the
            # job's: fail over instead of failing the client.
            if error in ("queue_full", "shutting_down"):
                raise NodeUnavailable(f"{node.name}: {error}")
            raise NodeRejected(f"{node.name}: {error}")
        if msg["op"] != op:
            raise NodeRejected(
                f"{node.name} answered {msg['op']!r}, expected {op!r}"
            )
        return msg

    # -- health ---------------------------------------------------------

    async def _probe(self, node: NodeInfo) -> None:
        self.health_probes += 1
        try:
            async with self._connect(node) as (reader, writer):
                writer.write(protocol.encode({"op": "ping"}))
                writer.write(protocol.encode({"op": "status"}))
                await writer.drain()
                pong = await asyncio.wait_for(reader.readline(), CONNECT_TIMEOUT)
                status = await asyncio.wait_for(reader.readline(), CONNECT_TIMEOUT)
            if not pong or protocol.decode(pong)["op"] != "pong":
                raise OSError("bad ping reply")
            summary = protocol.decode(status) if status else {}
        except (OSError, asyncio.TimeoutError, protocol.ProtocolError):
            self.membership.note_failure(node.name)
            return
        self.membership.mark_alive(
            node.name,
            {
                "queue_depth": summary.get("queue_depth"),
                "in_flight": summary.get("in_flight"),
                "workers_alive": summary.get("workers_alive"),
            },
        )

    async def _health_loop(self) -> None:
        while True:
            await asyncio.gather(
                *(self._probe(n) for n in self.membership.nodes()),
                return_exceptions=True,
            )
            await asyncio.sleep(self.config.health_interval)


class FederationGateway(ExperimentDaemon):
    """The protocol server over a :class:`NodePool` backend."""

    role = "gateway"
    stats_group = ("federation", "gateway scheduler over N daemons")

    def __init__(self, config: GatewayConfig):
        super().__init__(
            ServiceConfig(
                socket_path=config.socket_path,
                tcp=config.tcp,
                queue_size=None,
                use_cache=config.use_cache,
            ),
            pool=NodePool(config),
        )

    def _record(self, entry, outcome) -> None:
        """Persist a forwarded job's outcome without counting it in
        this process's ``jobs_executed``: the simulation ran on a node
        (``run_jobs``'s federated path skips ``record_outcome`` the
        same way)."""
        if self.config.use_cache:
            results_cache.store(entry.key, outcome)

    def register_stats(self, group: StatGroup) -> None:
        """Register the ``federation`` stats group (PR-2 schema)."""
        queue = self.queue
        self._register_server_stats(group)
        group.stat("dedupe_hits", lambda: queue.dedupe_hits, "submissions coalesced onto an in-flight federated job")
        group.stat("cache_hits", lambda: self.cache_hits, "submissions served from the gateway's read-through results cache")
        group.stat("completed", lambda: queue.completed, "federated jobs finished successfully")
        group.stat("failed", lambda: queue.failed, "federated jobs that exhausted failover or raised")
        group.stat("cancelled", lambda: queue.cancelled, "federated jobs cancelled before forwarding")
        group.stat("batches", lambda: self.batches, "submit_batch requests accepted")
        group.stat("batch_jobs", lambda: self.batch_jobs, "job slots carried by submit_batch requests")
        group.stat("active", queue.active, "deduplicated jobs queued or in flight")
        self.pool.register_stats(group)


def serve_gateway(config: GatewayConfig) -> None:
    """Blocking entry point: run a gateway in this process."""
    asyncio.run(FederationGateway(config).serve())
