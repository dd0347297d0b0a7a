"""repro.service: the resident experiment daemon.

The batch harness (:mod:`repro.harness.parallel`) builds a worker
pool per sweep and dies with its caller; this package keeps the
simulator resident and multi-client, the way the related cache-QoS
work assumes a shared service arbitrating partitioning studies:

- :mod:`~repro.service.protocol`: versioned JSON-lines wire format
  (``submit`` / ``submit_batch`` / ``status`` / ``watch`` / ``cancel``
  / ``stats`` / ``ping`` / ``shutdown``) over a Unix socket, TCP via
  ``REPRO_SERVICE_ADDR``;
- :mod:`~repro.service.jobqueue`: priority queue that dedupes
  submissions through the harness's content-addressed job keys;
- :mod:`~repro.service.workers`: the local execution backend --
  supervised persistent worker processes (warm trace store and
  imported modules, per-job timeouts, bounded crash retries,
  shared-memory trace publishing);
- :mod:`~repro.service.server`: the one asyncio protocol server,
  shared by the daemon (over the worker pool) and the federation
  gateway (over :class:`~repro.federation.gateway.NodePool`);
- :mod:`~repro.service.client`: the synchronous
  :class:`~repro.service.client.ServiceClient`.

Guarantee carried over from the harness: an outcome returned by the
daemon is bitwise-identical to a serial ``run_mix`` with the same
inputs (``tests/service/`` asserts it), because workers run the
exact same :func:`~repro.harness.parallel.execute_job` path.
"""

from repro.service.client import (
    BatchResult,
    ConnectionLost,
    ServiceClient,
    ServiceError,
)
from repro.service.jobqueue import JobEntry, JobQueue, QueueClosed, QueueFull
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    VersionMismatch,
    parse_addr,
)
from repro.service.server import ExperimentDaemon, ServiceConfig, serve
from repro.service.workers import JobTimeout, WorkerCrashed, WorkerPool

__all__ = [
    "BatchResult",
    "ConnectionLost",
    "ExperimentDaemon",
    "JobEntry",
    "JobQueue",
    "JobTimeout",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QueueClosed",
    "QueueFull",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "VersionMismatch",
    "WorkerCrashed",
    "WorkerPool",
    "parse_addr",
    "serve",
]
