"""Versioned JSON-lines wire protocol for the experiment daemon.

Every message is one JSON object per line, carrying the protocol
version under ``"v"`` and the operation under ``"op"``.  Requests:

- ``submit``: run a simulation job.  Fields: ``job`` (packed
  :class:`~repro.harness.parallel.SimJob`), ``priority`` (int, lower
  runs first, default 0), ``wait`` (bool: stream the result on this
  connection once the job finishes, default true).
- ``submit_batch``: run a whole sweep in one request.  Fields:
  ``jobs`` (list of packed jobs), ``priority``, ``wait``.  The reply
  is one ``batch_submitted`` line carrying per-slot ``ids`` /
  ``cached`` / ``deduped`` vectors, then (with ``wait``) one
  ``result`` line per slot as each job finishes -- ``index`` names
  the slot, ``outcome`` carries the packed result (or ``error`` the
  failure) -- and a final ``batch_done`` summary.
- ``status``: one job's state (``id``) or a server summary (no id;
  ``role`` says ``daemon`` or ``gateway``).
- ``watch``: stream ``event`` lines for a job (``id``) until it
  reaches a terminal state; without an ``id``, stream ``count``
  stats-tree snapshots ``interval`` seconds apart (unbounded without
  ``count``).
- ``cancel``: cancel a still-queued job by ``id``.
- ``stats``: the daemon's telemetry tree snapshot (same JSON shape as
  ``repro run-mix --stats-json``).
- ``shutdown``: stop the daemon after replying.
- ``ping``: liveness probe.

Responses mirror the request ids: ``submitted``, ``status``,
``event``, ``result``, ``stats``, ``pong``, ``ok`` and ``error``.

Simulation jobs and outcomes are Python object graphs (dataclasses
holding arrays and nested results), so they cross the JSON boundary
as base64-encoded pickles -- exactly the bytes a worker exchanges
over its pipe, which is what keeps daemon results bitwise-identical
to the batch harness.  The daemon
listens on a local Unix socket (or a loopback TCP port the operator
explicitly opted into), so the pickle channel has the same trust
boundary as the worker pool itself.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
from pathlib import Path

from repro import options

#: Bump on any incompatible message-shape change.  A daemon rejects
#: requests whose ``v`` differs from its own.
PROTOCOL_VERSION = 1

#: Hard cap on one encoded line (guards the daemon against a client
#: streaming garbage into its line buffer).  Outcomes for the paper's
#: systems are a few hundred KiB; 64 MiB is comfortably above any
#: legitimate job or outcome.
MAX_LINE_BYTES = 64 << 20

#: Job lifecycle states, as they appear on the wire.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States after which a job's record never changes again.
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})


class ProtocolError(Exception):
    """A malformed, oversized or version-mismatched message."""


class VersionMismatch(ProtocolError):
    """The peer speaks a different protocol version.

    Carries both versions so servers can answer with a structured
    ``version_mismatch`` error naming each side, and clients can tell
    the operator exactly which end needs upgrading.
    """

    def __init__(self, peer_version, our_version: int = None):
        self.peer_version = peer_version
        self.our_version = PROTOCOL_VERSION if our_version is None else our_version
        super().__init__(
            f"protocol version mismatch: peer speaks "
            f"{peer_version!r}, this end speaks {self.our_version}"
        )


def default_socket() -> Path:
    """The daemon's default Unix-socket path.

    ``REPRO_SERVICE_SOCKET`` overrides; the fallback sits next to the
    results cache so one checkout's clients and daemon agree.
    """
    return options.get("REPRO_SERVICE_SOCKET")


def parse_addr(raw: str, what: str = "service address") -> tuple[str, int]:
    """Validate and split a ``host:port`` endpoint string.

    Accepts the bracketed IPv6 form ``[::1]:7070`` (the host is
    returned without the brackets).  A bare IPv6 host is rejected --
    its colons make ``host:port`` ambiguous -- with a hint to bracket
    it.  Every failure raises :class:`ProtocolError` with a one-line
    message naming ``what``, so CLIs can print it and exit instead of
    dumping a traceback.
    """
    text = raw.strip()
    if text.startswith("["):
        host, bracket, rest = text[1:].partition("]")
        if not bracket or not rest.startswith(":"):
            raise ProtocolError(
                f"{what} must be [host]:port, got {raw!r}"
            )
        port_text = rest[1:]
    else:
        host, sep, port_text = text.rpartition(":")
        if not sep:
            raise ProtocolError(
                f"{what} must be host:port, got {raw!r}"
            )
        if ":" in host:
            raise ProtocolError(
                f"{what} has a bare IPv6 host; write it as "
                f"[host]:port, got {raw!r}"
            )
    if not host:
        raise ProtocolError(f"{what} has an empty host: {raw!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ProtocolError(
            f"{what} port is not an integer: {raw!r}"
        ) from None
    if not 1 <= port <= 65535:
        raise ProtocolError(
            f"{what} port must be in 1..65535, got {raw!r}"
        )
    return host, port


def tcp_addr() -> tuple[str, int] | None:
    """Optional TCP endpoint from ``REPRO_SERVICE_ADDR`` (host:port)."""
    return options.get("REPRO_SERVICE_ADDR")


def parse_node(
    spec: str, what: str = "federation node address"
) -> tuple[str, int] | Path:
    """A node or gateway address spec: ``host:port`` / ``[v6]:port``
    or a Unix socket path (anything with a path separator or no
    colon)."""
    text = spec.strip()
    if not text:
        raise ProtocolError(f"empty {what}")
    if "/" in text or os.sep in text or ":" not in text:
        return Path(text)
    return parse_addr(text, what=what)


def default_gateway_socket() -> Path:
    """``REPRO_GATEWAY_SOCKET`` or ``results/gateway.sock``."""
    return options.get("REPRO_GATEWAY_SOCKET")


def encode(msg: dict) -> bytes:
    """One wire line (version stamped, newline terminated)."""
    msg.setdefault("v", PROTOCOL_VERSION)
    line = json.dumps(msg, separators=(",", ":")).encode()
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"message of {len(line)} bytes exceeds the line cap")
    return line + b"\n"


def decode(line: bytes) -> dict:
    """Parse and validate one wire line into a message dict."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError("line exceeds the protocol size cap")
    try:
        msg = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable message: {exc}") from None
    if not isinstance(msg, dict):
        raise ProtocolError("message is not a JSON object")
    version = msg.get("v")
    if version != PROTOCOL_VERSION:
        raise VersionMismatch(version)
    op = msg.get("op")
    if not isinstance(op, str) or not op:
        raise ProtocolError("message has no 'op'")
    return msg


def pack(obj) -> str:
    """A Python object as a base64 pickle string (jobs, outcomes)."""
    return base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def unpack(blob: str):
    """Inverse of :func:`pack`."""
    try:
        return pickle.loads(base64.b64decode(blob.encode("ascii")))
    except Exception as exc:
        raise ProtocolError(f"unpackable payload: {exc!r}") from None


def error(message: str, **extra) -> dict:
    """An ``error`` response line."""
    return {"op": "error", "error": message, **extra}
