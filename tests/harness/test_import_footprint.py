"""Each process imports only the code it runs.

The gateway and the clients never simulate, so they must not import
numpy or the simulator; the daemon and the gateway must not import
the analysis models, the classifier or the table writers.  numpy is
imported once, by :func:`repro.lazy.load_numpy`, on first use or at a
worker pool's fork point, so pool workers share their parent's copy.

Every case runs in a fresh interpreter: this test process has long
since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Loaded by the modelling commands, never by a server or a client.
MODEL_MODULES = (
    "repro.analysis.assoc",
    "repro.analysis.metrics",
    "repro.analysis.overheads",
    "repro.harness.classify",
    "repro.harness.tables",
)


def _run(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; returns the JSON object it
    prints last, with ``modules`` set to its final ``sys.modules``."""
    script = textwrap.dedent(code) + textwrap.dedent(
        """
        import json as _json, sys as _sys
        _out = dict(globals().get("report", {}))
        _out["modules"] = sorted(_sys.modules)
        print(_json.dumps(_out))
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    out["modules"] = set(out["modules"])
    return out


@pytest.mark.parametrize(
    "code",
    [
        "import repro.options",
        "import repro.service.client",
        "import repro.federation",
        "from repro.service import ServiceClient, ServiceError",
        "from repro.federation import FederatedClient",
    ],
)
def test_clients_load_neither_numpy_nor_the_simulator(code):
    modules = _run(code)["modules"]
    assert "numpy" not in modules
    assert "repro.core" not in modules
    assert "repro.harness" not in modules


@pytest.mark.parametrize("command", ["gateway", "serve", "submit"])
def test_front_door_help_does_not_import_numpy(command):
    modules = _run(
        f"""
        import contextlib, io, runpy, sys
        sys.argv = ["repro", {command!r}, "--help"]
        with contextlib.redirect_stdout(io.StringIO()):
            with contextlib.suppress(SystemExit):
                runpy.run_module("repro", run_name="__main__", alter_sys=True)
        """
    )["modules"]
    assert "repro.cli" in modules
    assert "numpy" not in modules


@pytest.mark.parametrize(
    "command, package, entry",
    [
        (["gateway", "--node", "127.0.0.1:1"], "repro.federation", "serve_gateway"),
        (["serve", "--workers", "1"], "repro.service", "serve"),
    ],
)
def test_servers_skip_numpy_models_and_tables(tmp_path, command, package, entry):
    """Everything ``repro serve`` / ``repro gateway`` import before
    they serve.  The daemon's worker pool then imports numpy at its
    fork point (below); the gateway never does."""
    argv = [*command, "--socket", str(tmp_path / "s.sock")]
    report = _run(
        f"""
        import contextlib, importlib, io
        import repro.federation.gateway, repro.service.server
        from repro import cli

        served = []
        package = importlib.import_module({package!r})
        setattr(package, {entry!r}, served.append)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main({argv!r})
        report = {{"code": code, "served": len(served)}}
        """
    )
    assert (report["code"], report["served"]) == (0, 1)
    modules = report["modules"]
    assert "repro.harness.schemes" in modules  # job_key needs the registry
    assert "numpy" not in modules
    assert not modules & set(MODEL_MODULES), sorted(modules & set(MODEL_MODULES))


def test_gateway_does_not_load_the_worker_pool():
    """The gateway subclasses the daemon's server but never runs a
    local pool, so it must not import ``repro.service.workers``."""
    modules = _run(
        """
        from repro.federation.gateway import FederationGateway, GatewayConfig
        FederationGateway(GatewayConfig(nodes=["127.0.0.1:1"]))
        """
    )["modules"]
    assert "repro.service.server" in modules
    assert "repro.service.workers" not in modules


def test_worker_pool_preloads_numpy_at_its_fork_point():
    report = _run(
        """
        import asyncio, sys
        from repro.service.jobqueue import JobQueue
        from repro.service.workers import WorkerPool

        before = "numpy" in sys.modules

        async def drive():
            pool, queue = WorkerPool(1), JobQueue(maxsize=None)
            await pool.start(queue)
            loaded = ["numpy" in sys.modules, "repro.harness.runner" in sys.modules]
            queue.close()
            await pool.stop()
            return loaded

        report = {"before": before, "after_start": asyncio.run(drive())}
        """
    )
    assert report["before"] is False
    assert report["after_start"] == [True, True]


def test_lazy_reexports_resolve_in_a_fresh_process():
    report = _run(
        """
        import repro
        cache = repro.VantageCache.__name__
        from repro.harness import SimJob
        report = {"cache": cache, "job": SimJob.__module__,
                  "dir": "VantageCache" in dir(repro)}
        """
    )
    assert report["cache"] == "VantageCache"
    assert report["job"] == "repro.harness.parallel"
    assert report["dir"] is True
    assert "numpy" not in report["modules"]


@pytest.mark.parametrize(
    "package",
    [
        "repro",
        "repro.analysis",
        "repro.federation",
        "repro.harness",
        "repro.service",
    ],
)
def test_every_exported_name_resolves(package):
    import importlib

    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in dir(module), name
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")


def test_hashing_np_is_the_loaders_result():
    """``hashing._np`` (read by CI's numpy-less smoke) reports what
    the one loader returns."""
    from repro import lazy
    from repro.arrays import hashing

    assert hashing._np is lazy.load_numpy()
