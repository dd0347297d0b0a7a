"""Malformed request fields against both protocol servers.

The daemon and the gateway are one server (``ExperimentDaemon``) over
two backends, so a bad ``job`` / ``priority`` / ``id`` / ``count``
field gets the same answer from either: one ``error`` line, and the
connection keeps serving -- a following ``ping`` on the same socket
is answered with ``pong``.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.service import protocol

from fedutil import GatewayHarness, ServerHarness, free_port, make_jobs


def _daemon(tmp_path):
    from repro.service import ExperimentDaemon, ServiceConfig

    path = tmp_path / "daemon.sock"
    config = ServiceConfig(socket_path=path, tcp=None, workers=1)
    return ServerHarness(lambda: ExperimentDaemon(config), path)


def _gateway(tmp_path):
    # An unreachable node: no bad line may get as far as routing.
    return GatewayHarness(tmp_path, [f"127.0.0.1:{free_port()}"])


def _bad_lines():
    job = protocol.pack(make_jobs(mixes=1, schemes=("lru-sa16",))[0])
    return {
        "submit-unpackable-job": {"op": "submit", "job": "not a pickle"},
        "submit-priority-high": {"op": "submit", "job": job, "priority": "high"},
        "batch-priority-high": {"op": "submit_batch", "jobs": [job], "priority": "high"},
        "status-id-x": {"op": "status", "id": "x"},
        "watch-id-x": {"op": "watch", "id": "x"},
        "cancel-id-x": {"op": "cancel", "id": "x"},
        "watch-count-many": {"op": "watch", "count": "many"},
    }


@pytest.mark.parametrize("case", sorted(_bad_lines()))
@pytest.mark.parametrize("kind", ["daemon", "gateway"])
def test_bad_field_gets_error_and_connection_keeps_serving(
    fed_env, kind, case
):
    harness = (_daemon if kind == "daemon" else _gateway)(fed_env)
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(30)
            sock.connect(str(harness.socket_path))
            fh = sock.makefile("rwb")
            fh.write(protocol.encode(_bad_lines()[case]))
            fh.flush()
            reply = json.loads(fh.readline() or b"null")
            assert reply is not None, "server dropped the connection"
            assert reply["op"] == "error", reply
            fh.write(protocol.encode({"op": "ping"}))
            fh.flush()
            assert json.loads(fh.readline() or b"null")["op"] == "pong"
        assert harness.server.protocol_errors == 1
        assert harness.server.queue.submitted == 0
    finally:
        harness.stop()
