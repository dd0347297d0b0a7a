"""End-to-end federation: a gateway fronting two real daemon
subprocesses, with the acceptance guarantees under test:

- a multi-mix multi-scheme sweep submitted through the gateway is
  bitwise-identical to serial ``run_mix``, with work spread over both
  nodes;
- resubmitting the sweep from a fresh client is served from the
  gateway's read-through cache (cross-node result federation), >= 90%
  of slots;
- concurrent duplicate submissions from independent clients coalesce
  (``dedupe_hits``);
- ``run_jobs`` with ``REPRO_FED_GATEWAY`` fans a sweep out through the
  gateway, and falls back to the local pool when no gateway answers;
- the ``federation`` stats group follows the PR-2 tree schema, and
  the gateway never counts a forwarded job as executed in its own
  ``harness`` counters.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.service import ServiceError

from fedutil import INSTRUCTIONS, make_jobs, serial_results

SCHEMES = ("lru-sa16", "vantage-z4/52")


class TestFederatedSweep:
    def test_sweep_parity_spread_resubmit_and_stats(self, fleet):
        gateway = fleet.gateway.gateway
        jobs = make_jobs(mixes=6, schemes=SCHEMES)  # 12 distinct jobs
        expected = serial_results(jobs)

        with fleet.gateway.client() as fed:
            batch = fed.submit_batch(jobs).raise_on_error()
        assert [o.result for o in batch.outcomes] == expected
        assert not any(batch.cached), "fresh sweep must not be cached"

        # The ring spread the sweep over both nodes.
        routed = {n.name: n.routed for n in gateway.pool.membership.nodes()}
        assert all(count > 0 for count in routed.values()), routed
        assert sum(routed.values()) == len(jobs)
        assert gateway.queue.completed == len(jobs)
        assert gateway.queue.failed == 0

        # Resubmission from a *different* client: the gateway's
        # read-through cache federates results computed on either
        # node, so >= 90% (here: all) of the slots are cache hits.
        with fleet.gateway.client() as fed:
            again = fed.submit_batch(jobs).raise_on_error()
        assert [o.result for o in again.outcomes] == expected
        assert sum(again.cached) >= 0.9 * len(jobs)
        assert gateway.cache_hits >= 0.9 * len(jobs)
        # No new simulations were routed for the resubmission.
        assert sum(n.routed for n in gateway.pool.membership.nodes()) == len(jobs)

        # The federation stats group: PR-2 tree shape, JSON-stable,
        # with live per-node health rows.
        with fleet.gateway.client() as fed:
            tree = fed.stats()
            summary = fed.federation_status()
            rows = fed.node_rows()
        assert json.loads(json.dumps(tree)) == tree
        stats = tree["federation"]
        assert stats["routed"] == len(jobs)
        assert stats["cache_hits"] >= 0.9 * len(jobs)
        assert stats["failover_requeues"] == 0
        assert stats["ring"]["nodes"] == 2
        assert stats["ring"]["alive"] == 2
        assert stats["ring"]["dead"] == 0
        for name in ("node0", "node1"):
            node_stats = stats["nodes"][name]
            assert node_stats["alive"] is True
            assert node_stats["queue_depth"] >= 0  # health probe ran
        assert summary["role"] == "gateway"
        assert [r["name"] for r in rows] == ["node0", "node1"]
        assert all(r["state"] == "alive" for r in rows)

    def test_stats_tree_names_follow_schema(self, fed_env):
        """Every federation stat name passes the telemetry tree's
        naming rule and schema walk -- without any live nodes."""
        from repro.federation import FederationGateway, GatewayConfig

        gateway = FederationGateway(
            GatewayConfig(
                socket_path=fed_env / "g.sock",
                nodes=["127.0.0.1:1", "127.0.0.1:2"],
            )
        )
        rows = gateway.stats_tree().schema()
        names = [name for name, _, _ in rows]
        assert "federation.routed" in names
        assert "federation.dedupe_hits" in names
        assert "federation.failover_requeues" in names
        assert "federation.ring.alive" in names
        assert "federation.nodes.node0.queue_depth" in names
        assert "federation.nodes.node1.workers_alive" in names


class TestGatewayTelemetry:
    def test_forwarded_jobs_are_not_counted_as_executed(self, fleet, monkeypatch):
        """The nodes ran the simulations, so the gateway's harness
        counters must not: ``jobs_executed`` stays 0 while the fresh
        outcomes are still persisted to its results cache."""
        from repro.harness import parallel, results_cache
        from repro.telemetry import Distribution

        monkeypatch.setattr(
            parallel, "JOB_WALL_TIME", Distribution("job_wall_time", "test")
        )
        gateway = fleet.gateway.gateway
        jobs = make_jobs(mixes=2, schemes=("lru-sa16",))
        with fleet.gateway.client() as fed:
            batch = fed.submit_batch(jobs).raise_on_error()
        assert not any(batch.cached)
        assert gateway.queue.completed == len(jobs)
        harness = gateway.stats_tree().snapshot()["harness"]
        assert harness["jobs_executed"] == 0
        assert all(
            results_cache.load(results_cache.job_key(job)) is not None
            for job in jobs
        )


class TestDedupe:
    def test_concurrent_duplicates_from_two_clients_coalesce(self, fleet):
        """Two independent clients submit the identical fresh job at
        once: one simulation runs, the second submission coalesces on
        the gateway (dedupe) -- and both get the serial result."""
        gateway = fleet.gateway.gateway
        job = make_jobs(mixes=1, schemes=("srrip-sa16",),
                        instructions=600_000)[0]
        results = {}

        def submit(idx):
            with fleet.gateway.client() as fed:
                results[idx] = fed.submit(job)

        threads = [
            threading.Thread(target=submit, args=(i,)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert sorted(results) == [0, 1]
        assert results[0].result == results[1].result
        expected = serial_results([job])[0]
        assert results[0].result == expected
        # The overlap window is the whole simulation, so the second
        # submission coalesced instead of simulating again.
        assert gateway.queue.dedupe_hits >= 1
        assert gateway.pool.routed == 1


class TestVantageConfigKeys:
    def test_vantage_config_outcome_never_served_for_default_job(self, fleet):
        """The gateway caches and coalesces by job key, which covers
        the job's ``vantage_config``: a default submission after an
        overridden one of the same job is simulated on its own."""
        from dataclasses import replace

        from repro.core import VantageConfig
        from repro.harness import SimJob
        from repro.harness.parallel import execute_job
        from repro.sim import small_system
        from repro.workloads import make_mix

        gateway = fleet.gateway.gateway
        default_job = SimJob(
            make_mix("sftn", 1),
            "vantage-z4/52",
            small_system(l2_bytes=64 * 1024, epoch_cycles=20_000),
            30_000,
            seed=0,
        )
        variant_job = replace(
            default_job, vantage_config=VantageConfig(unmanaged_fraction=0.3)
        )
        with fleet.gateway.client() as fed:
            variant = fed.submit(variant_job)
            served = fed.submit_batch([default_job]).raise_on_error()
        assert served.cached == [False]
        assert gateway.cache_hits == 0
        assert gateway.pool.routed == 2
        inline = execute_job(default_job)
        assert variant.result != inline.result, "the override changed nothing"
        assert served.outcomes[0].result == inline.result


class TestHarnessFanOut:
    def test_run_jobs_routes_through_gateway(self, fleet, monkeypatch):
        from repro.harness import parallel

        monkeypatch.setenv(
            "REPRO_FED_GATEWAY", str(fleet.gateway.config.socket_path)
        )
        jobs = make_jobs(mixes=2, schemes=SCHEMES)
        expected = serial_results(jobs)
        before = parallel.FED_JOBS
        outcomes = parallel.run_jobs(jobs)
        assert [o.result for o in outcomes] == expected
        assert parallel.FED_JOBS - before == len(jobs)
        assert fleet.gateway.gateway.queue.completed == len(jobs)

    def test_run_jobs_falls_back_when_gateway_unreachable(
        self, fed_env, monkeypatch
    ):
        from fedutil import free_port
        from repro.harness import parallel

        monkeypatch.setenv(
            "REPRO_FED_GATEWAY", f"127.0.0.1:{free_port()}"
        )
        jobs = make_jobs(mixes=1, schemes=("lru-sa16",))
        expected = serial_results(jobs)
        before = parallel.FED_FALLBACKS
        outcomes = parallel.run_jobs(jobs, workers=1)
        assert [o.result for o in outcomes] == expected
        assert parallel.FED_FALLBACKS - before == len(jobs)


class TestCliVerbs:
    def test_fed_submit_and_fed_status(self, fleet, capsys):
        from repro.cli import main

        gateway_spec = str(fleet.gateway.config.socket_path)
        code = main([
            "fed-submit", "--gateway", gateway_spec,
            "--mixes", "2", "--schemes", ",".join(SCHEMES),
            "--instructions", str(INSTRUCTIONS),
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "4 job(s)" in out
        assert "done: 4/4 ok" in out

        code = main(["fed-status", "--gateway", gateway_spec])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "node0" in out and "node1" in out
        assert "alive" in out

    def test_fed_status_unreachable_gateway_is_one_line_error(
        self, fed_env, capsys
    ):
        from repro.cli import main

        code = main([
            "fed-status", "--gateway", str(fed_env / "nonexistent.sock"),
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("error:")

    def test_bad_gateway_addr_is_one_line_error(self, fed_env, capsys):
        from repro.cli import main

        code = main(["fed-status", "--gateway", "::1:99999x"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("error:")
        assert "\n" not in out.strip()
