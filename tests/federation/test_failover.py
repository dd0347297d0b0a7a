"""Gateway failover: SIGKILL one of two daemons mid-sweep.

The acceptance guarantee under test: the sweep still completes, every
outcome is bitwise-identical to serial ``run_mix``, the gateway's
``failover_requeues`` counter shows jobs were rerouted, the dead node
is marked dead in the membership table -- and a resubmission of the
same sweep is served from the gateway's cache even though one of the
nodes that computed it no longer exists.
"""

from __future__ import annotations

import threading
import time

import pytest

from fedutil import make_jobs, serial_results

#: Long enough per job that the kill lands while the sweep is still
#: in flight on both nodes, short enough to keep the test quick.
KILL_INSTRUCTIONS = 300_000

SCHEMES = ("lru-sa16", "vantage-z4/52")


def _wait(predicate, timeout: float, what: str) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.02)


class TestFailover:
    def test_sigkilled_node_mid_sweep_fails_over_bitwise_identical(
        self, fleet
    ):
        gateway = fleet.gateway.gateway
        jobs = make_jobs(
            mixes=5, schemes=SCHEMES, instructions=KILL_INSTRUCTIONS
        )  # 10 jobs, hash-spread over both nodes

        batch_box = {}

        def run_sweep():
            with fleet.gateway.client() as fed:
                batch_box["batch"] = fed.submit_batch(jobs)

        sweep = threading.Thread(target=run_sweep)
        sweep.start()

        # Wait until the whole sweep is forwarded and both nodes are
        # actually working, then SIGKILL the busier node's process
        # group (daemon and its workers).
        _wait(
            lambda: gateway.pool.routed >= len(jobs)
            and all(n.in_flight > 0 for n in gateway.pool.membership.nodes()),
            timeout=120,
            what="the sweep to be in flight on both nodes",
        )
        nodes = gateway.pool.membership.nodes()
        victim = max(nodes, key=lambda n: n.in_flight)
        victim_index = int(victim.name.removeprefix("node"))
        victim_share = victim.in_flight
        assert victim_share > 0
        fleet.nodes[victim_index].kill()

        sweep.join(timeout=600)
        assert not sweep.is_alive(), "sweep never completed after the kill"
        batch = batch_box["batch"].raise_on_error()

        # Bitwise parity with serial run_mix, despite the failover.
        expected = serial_results(jobs)
        assert [o.result for o in batch.outcomes] == expected

        # The kill was observed: jobs in flight on the victim were
        # requeued to the survivor, and the membership table shows
        # one dead node.
        assert gateway.pool.failover_requeues > 0
        assert gateway.pool.membership.dead() == 1
        assert gateway.pool.membership.node(victim.name).state == "dead"
        assert gateway.queue.completed == len(jobs)
        assert gateway.queue.failed == 0

        # Results computed on the dead node federated into the
        # gateway's cache: resubmitting the sweep needs no node that
        # no longer exists.
        with fleet.gateway.client() as fed:
            again = fed.submit_batch(jobs).raise_on_error()
        assert [o.result for o in again.outcomes] == expected
        assert sum(again.cached) == len(jobs)

        # No leaked processes: the victim's whole process group is
        # gone (DaemonProc.kill SIGKILLs the group; poll confirms).
        assert fleet.nodes[victim_index].proc.poll() is not None

    def test_all_nodes_dead_fails_jobs_cleanly(self, fed_env):
        """With every node dead the gateway fails submissions with a
        clear error instead of hanging."""
        from fedutil import GatewayHarness, free_port
        from repro.service import ServiceError

        harness = GatewayHarness(
            fed_env,
            [f"127.0.0.1:{free_port()}", f"127.0.0.1:{free_port()}"],
            fail_threshold=1,
            max_retries=1,
        )
        try:
            job = make_jobs(mixes=1, schemes=("lru-sa16",))[0]
            gateway = harness.gateway
            _deadline = time.monotonic() + 60
            while gateway.pool.membership.dead() < 2:
                assert time.monotonic() < _deadline
                time.sleep(0.02)
            with harness.client() as fed:
                with pytest.raises(ServiceError, match="no live"):
                    fed.submit(job)
        finally:
            harness.stop()
