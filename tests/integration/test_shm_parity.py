"""Cross-path parity for the shared-memory trace fabric.

``REPRO_TRACE_SHM=1`` swaps the chunk *transport* -- workers map the
publisher's segments zero-copy instead of compiling private
``array('q')`` buffers -- and must never change a simulation: every
result here is required to be bitwise-identical with the fabric on
and off, on both lanes (``REPRO_FUSED`` on and off), and through a
real two-worker ``run_jobs`` fan-out (the publish phase,
the forked attaches, and the owner's unlink at the end).
"""

from __future__ import annotations

import pytest

from repro import traces
from repro.harness import SimJob, run_jobs
from repro.harness.runner import run_mix
from repro.traces import shm
from repro.sim.configs import small_system
from repro.workloads import make_mix

pytestmark = pytest.mark.skipif(
    shm.shm_dir() is None, reason="no /dev/shm on this platform"
)

INSTRUCTIONS = 6_000
EPOCH_CYCLES = 20_000


@pytest.fixture(autouse=True)
def _fabric_isolation(monkeypatch):
    """Detach from any ambient caches, and tear the process-wide
    pool/store down so no segment leaks past a test."""
    for name in ("REPRO_TRACE_CACHE", "REPRO_RESULTS_CACHE", "REPRO_CACHE_DIR"):
        monkeypatch.delenv(name, raising=False)
    yield
    shm.get_pool().close(unlink=True)
    traces.reset_store()
    shm.reset_pool()


#: (scheme, mix class, seed, lane) sample points: each scheme once on
#: the fast path and once on the object path.
COMBOS = [
    ("lru-sa16", "ssft", 477, (("REPRO_FUSED", "1"),)),
    ("lru-sa16", "sstn", 299, (("REPRO_FUSED", "0"),)),
    ("vantage-z4/52", "sfff", 436, (("REPRO_FUSED", "1"),)),
    ("vantage-z4/52", "ffft", 40, (("REPRO_FUSED", "0"),)),
    ("drrip-z4/16", "fnnn", 106, (("REPRO_FUSED", "1"),)),
    ("drrip-z4/16", "sffn", 473, (("REPRO_FUSED", "0"),)),
]


@pytest.mark.parametrize("scheme,mix_class,seed,flags", COMBOS)
def test_shm_lane_matches_private_lane(monkeypatch, scheme, mix_class, seed, flags):
    """Owner publishes, a fresh store attaches, and the simulation is
    bitwise-identical to the private-array lane under the same flags."""
    mix = make_mix(mix_class, 1)
    config = small_system(epoch_cycles=EPOCH_CYCLES)
    for name, value in flags:
        monkeypatch.setenv(name, value)

    monkeypatch.setenv("REPRO_TRACE_SHM", "0")
    traces.reset_store()
    baseline = run_mix(mix, scheme, config, INSTRUCTIONS, seed=seed)

    monkeypatch.setenv("REPRO_TRACE_SHM", "1")
    shm.reset_pool()
    owner = traces.reset_store()
    for spec in mix.trace_factories(seed):
        assert owner.publish_prefix(spec, INSTRUCTIONS) > 0

    consumer = traces.reset_store()  # cold store: must go through shm
    variant = run_mix(mix, scheme, config, INSTRUCTIONS, seed=seed)
    assert consumer.shm_hits > 0
    assert consumer.compiles == 0

    assert variant.result == baseline.result
    assert variant.stats() == baseline.stats()


def test_run_jobs_two_worker_fanout_parity(monkeypatch):
    """The full batch path: ``run_jobs`` publishes, forked workers
    attach (``shm_hits`` in their counters), outcomes are identical to
    the serial no-shm run, and the owner's segments are unlinked by
    the pool teardown."""
    jobs = [
        SimJob(
            make_mix("sftn", 1),
            scheme,
            small_system(epoch_cycles=EPOCH_CYCLES),
            INSTRUCTIONS,
            seed=3,
        )
        for scheme in ("lru-sa16", "srrip-sa16", "drrip-z4/16")
    ]

    monkeypatch.setenv("REPRO_TRACE_SHM", "0")
    traces.reset_store()
    serial = run_jobs(jobs, workers=1, use_cache=False)

    monkeypatch.setenv("REPRO_TRACE_SHM", "1")
    shm.reset_pool()
    traces.reset_store()
    fanned = run_jobs(jobs, workers=2, use_cache=False)

    assert [o.result for o in fanned] == [o.result for o in serial]
    assert [o.size_series for o in fanned] == [o.size_series for o in serial]
    worker_hits = [o.trace_counters["shm_hits"] for o in fanned if o.trace_counters]
    assert max(worker_hits) > 0, "no worker attached a shared segment"

    owned = shm.get_pool().owned_names()
    assert owned, "run_jobs parent published nothing"
    shm.get_pool().close(unlink=True)
    leftovers = [
        p.name
        for p in shm.shm_dir().glob(shm.SEGMENT_PREFIX + "*")
        if p.name in owned
    ]
    assert not leftovers


def test_publish_phase_skipped_when_disabled(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_SHM", "0")
    from repro.harness.parallel import publish_traces

    jobs = [
        SimJob(make_mix("sftn", 1), "lru-sa16", small_system(), 2000, seed=1)
    ]
    assert publish_traces(jobs) == 0
    assert shm.get_pool().owned_names() == []
