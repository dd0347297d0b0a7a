"""Exact simulation does not depend on the trace chunk size.

Chunking only decides where the event loop refills a core's cursor
(and where the batch kernel returns with reason 2); the ``(gap, addr)``
stream itself is the same.  So every exact outcome -- result and stats
tree, apart from the ``sim.trace_chunks`` refill counters -- must be
identical for stores of any chunk size, on the list-scan scheduler
(<= 8 cores) and the heap scheduler, on the fast path and on the
object path (``REPRO_FUSED=0``).
"""

import pytest

from repro.harness.runner import run_mix
from repro.sim.configs import small_system
from repro.traces import reset_store
from repro.workloads import make_mix

INSTRUCTIONS = 6_000

#: 64 pairs forces many refills per run; 65,536 never refills.
CHUNK_SIZES = (64, 4_096, 65_536)

MIXES = {
    "4-core": lambda: make_mix("sftn", 1),
    "12-core": lambda: make_mix("nfts", 1, apps_per_slot=3),
}


@pytest.fixture(autouse=True)
def _exact_and_fresh(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    monkeypatch.delenv("REPRO_TRACE_SHM", raising=False)
    yield
    reset_store()


def _without_refills(stats: dict) -> dict:
    sim = {k: v for k, v in stats["sim"].items() if k != "trace_chunks"}
    return {**stats, "sim": sim}


@pytest.mark.parametrize("fused", ["1", "0"], ids=["fast", "object"])
@pytest.mark.parametrize("mix_name", sorted(MIXES))
def test_exact_outcome_is_chunk_size_invariant(monkeypatch, mix_name, fused):
    monkeypatch.setenv("REPRO_FUSED", fused)
    mix = MIXES[mix_name]()
    config = small_system(num_cores=mix.num_cores, epoch_cycles=20_000)
    runs = {}
    for chunk_pairs in CHUNK_SIZES:
        reset_store(chunk_pairs=chunk_pairs)
        runs[chunk_pairs] = run_mix(mix, "vantage-z4/52", config, INSTRUCTIONS, seed=7)

    refills = {size: sum(run.system.trace_chunks) for size, run in runs.items()}
    # The smallest chunking really refills mid-run; the largest never does.
    assert refills[64] > refills[65_536] == mix.num_cores
    baseline = runs[65_536]
    for size in CHUNK_SIZES[:-1]:
        assert runs[size].result == baseline.result, size
        assert _without_refills(runs[size].stats()) == _without_refills(
            baseline.stats()
        ), size
