"""Shared helpers for the federation tests.

A *fleet* is the real thing end to end: two daemon subprocesses
(``python -m repro serve --tcp``) with private results caches, fronted
by a :class:`~repro.federation.FederationGateway` running on a
background thread of the test process (so assertions can read its
counters and membership directly).  Daemons are launched in their own
process groups so a SIGKILL in the failover tests takes their forked
workers down too -- no leaked processes.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.federation import FederatedClient, FederationGateway, GatewayConfig
from repro.service import ServiceError

SRC = Path(__file__).resolve().parents[2] / "src"

#: Short enough for quick sweeps, long enough to simulate something.
INSTRUCTIONS = 6_000


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def make_jobs(mixes: int, schemes, instructions: int = INSTRUCTIONS):
    """The mix x scheme sweep grid the federation tests share."""
    from repro.harness import SimJob
    from repro.sim import small_system
    from repro.workloads import make_mix

    config = small_system()
    return [
        SimJob(make_mix("sftn", index), scheme, config, instructions, seed=0)
        for index in range(1, mixes + 1)
        for scheme in schemes
    ]


def serial_results(jobs):
    """Ground truth: each job's serial run_mix result, job order."""
    from repro.harness import run_mix

    return [
        run_mix(
            job.mix, job.scheme, job.config, job.instructions, seed=job.seed
        ).result
        for job in jobs
    ]


class DaemonProc:
    """One experiment daemon as a real subprocess on loopback TCP."""

    def __init__(self, tmp_path: Path, name: str, workers: int = 1):
        self.name = name
        self.port = free_port()
        self.addr = f"127.0.0.1:{self.port}"
        self.socket_path = tmp_path / f"{name}.sock"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        # Each node gets a *private* results cache: cross-node result
        # federation must come from the gateway's read-through cache,
        # not from the nodes accidentally sharing a directory.
        env["REPRO_CACHE_DIR"] = str(tmp_path / f"{name}-cache")
        for knob in ("REPRO_SERVICE_ADDR", "REPRO_FED_GATEWAY",
                     "REPRO_TRACE_SHM", "REPRO_GATEWAY_SOCKET"):
            env.pop(knob, None)
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", str(self.socket_path),
                "--tcp", self.addr,
                "--workers", str(workers),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            start_new_session=True,  # SIGKILL the group, workers too
        )

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                out = self.proc.stdout.read().decode(errors="replace")
                raise RuntimeError(f"{self.name} died at startup:\n{out}")
            try:
                with socket.create_connection(
                    ("127.0.0.1", self.port), timeout=1
                ):
                    return
            except OSError:
                time.sleep(0.05)
        raise RuntimeError(f"{self.name} never listened on {self.addr}")

    def kill(self) -> None:
        """SIGKILL the daemon *and its workers* (whole process group)."""
        if self.proc.poll() is None:
            with_group = getattr(os, "killpg", None)
            if with_group:
                try:
                    os.killpg(os.getpgid(self.proc.pid), signal.SIGKILL)
                except (OSError, ProcessLookupError):
                    self.proc.kill()
            else:
                self.proc.kill()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                from repro.service import ServiceClient

                with ServiceClient(
                    tcp=("127.0.0.1", self.port), timeout=10, retries=0
                ) as svc:
                    svc.shutdown()
                self.proc.wait(timeout=30)
            except (OSError, ServiceError, subprocess.TimeoutExpired):
                pass
        self.kill()


class ServerHarness:
    """A protocol server -- daemon or gateway -- on a background
    thread's event loop, with its internals (queue, backend, counters)
    visible to assertions."""

    def __init__(self, make_server, socket_path: Path):
        self.socket_path = socket_path
        self._make_server = make_server
        self.server = None
        self._started = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        assert self._started.wait(timeout=60), "server failed to start"

    def _run(self):
        async def main():
            self.server = self._make_server()
            await self.server.start()
            self._started.set()
            try:
                await self.server._shutdown.wait()
            finally:
                await self.server.stop()

        asyncio.run(main())

    def client(self, **kwargs) -> FederatedClient:
        return FederatedClient(self.socket_path, **kwargs).connect()

    def stop(self):
        if self.thread.is_alive():
            try:
                with self.client() as svc:
                    svc.shutdown()
            except (OSError, ServiceError):
                self.server.request_shutdown()
            self.thread.join(timeout=60)
        assert not self.thread.is_alive(), "server thread failed to exit"


class GatewayHarness(ServerHarness):
    """A gateway over ``node_addrs`` (see :class:`ServerHarness`)."""

    def __init__(self, tmp_path: Path, node_addrs: list[str], **overrides):
        config = dict(
            socket_path=tmp_path / "gateway.sock",
            nodes=list(node_addrs),
            health_interval=0.2,
        )
        config.update(overrides)
        self.config = GatewayConfig(**config)
        super().__init__(
            lambda: FederationGateway(self.config), self.config.socket_path
        )

    @property
    def gateway(self) -> FederationGateway:
        return self.server
