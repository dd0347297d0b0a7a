"""Determinism of the parallel harness and the results cache.

The guarantees under test:

- ``run_jobs`` over worker processes is bitwise-identical to running
  each job serially through ``run_mix``;
- a cache hit returns the same outcome as a fresh simulation;
- duplicate jobs (and a baseline repeated inside a scheme list) are
  simulated only once;
- fast-forward (approximate) and exact outcomes never share a key.
"""

from __future__ import annotations

import os

import pytest

from repro.harness import SimJob, relative_throughputs, run_jobs, run_mix
from repro.harness import results_cache
from repro.harness.parallel import execute_job
from repro.sim import small_system
from repro.workloads import make_mix

INSTRUCTIONS = 8_000
SCHEMES = ("vantage-z4/16", "lru-sa16")


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_RESULTS_CACHE", raising=False)
    return tmp_path / "cache"


def _jobs():
    config = small_system()
    mixes = [make_mix("sftn", 1), make_mix("ttnn", 1)]
    return [
        SimJob(mix, scheme, config, INSTRUCTIONS, seed=3)
        for mix in mixes
        for scheme in SCHEMES
    ]


def test_parallel_matches_serial_bitwise(cache_dir):
    jobs = _jobs()
    parallel = run_jobs(jobs, workers=2, use_cache=False)
    for job, outcome in zip(jobs, parallel):
        serial = run_mix(
            job.mix, job.scheme, job.config, job.instructions, seed=job.seed
        ).result
        assert outcome.result == serial


def test_cache_hit_equals_fresh_run(cache_dir):
    jobs = _jobs()
    fresh = run_jobs(jobs, workers=1)
    assert cache_dir.exists()  # entries were written
    hits = run_jobs(jobs, workers=1)
    for a, b in zip(fresh, hits):
        assert a.result == b.result


def test_cache_can_be_disabled(cache_dir, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_CACHE", "0")
    run_jobs(_jobs()[:1], workers=1)
    assert not cache_dir.exists()


def test_duplicate_jobs_simulated_once(cache_dir):
    job = _jobs()[0]
    outcomes = run_jobs([job, job, job], workers=1, use_cache=True)
    assert len(outcomes) == 3
    assert outcomes[0].result == outcomes[1].result == outcomes[2].result
    entries = [p for p in cache_dir.rglob("*.pkl")]
    assert len(entries) == 1


def test_job_key_distinguishes_inputs():
    config = small_system()
    mix = make_mix("sftn", 1)
    base = SimJob(mix, "lru-sa16", config, INSTRUCTIONS, seed=0)
    assert results_cache.job_key(base) == results_cache.job_key(
        SimJob(mix, "lru-sa16", config, INSTRUCTIONS, seed=0)
    )
    variants = [
        SimJob(mix, "vantage-z4/16", config, INSTRUCTIONS, seed=0),
        SimJob(mix, "lru-sa16", config, INSTRUCTIONS, seed=1),
        SimJob(mix, "lru-sa16", config, INSTRUCTIONS + 1, seed=0),
        SimJob(make_mix("ttnn", 1), "lru-sa16", config, INSTRUCTIONS, seed=0),
        SimJob(mix, "lru-sa16", config, INSTRUCTIONS, seed=0, fastfwd=True),
        SimJob(mix, "lru-sa16", config, INSTRUCTIONS, seed=0, fastfwd_tol=0.5),
    ]
    keys = {results_cache.job_key(v) for v in variants}
    assert results_cache.job_key(base) not in keys
    assert len(keys) == len(variants)


def _fastfwd_probe_job() -> SimJob:
    """A job on which fast-forward skips work (so its outcome differs
    from the exact one); the fast-forward fields come from the
    environment, as for any job built in a sweep script."""
    return SimJob(
        make_mix("sftn", 1),
        "vantage-z4/52",
        small_system(epoch_cycles=150_000),
        30_000,
        seed=0,
    )


def test_fastfwd_sweep_does_not_poison_exact_results(cache_dir, monkeypatch):
    """A ``REPRO_FASTFWD=1`` sweep, then an exact sweep in the same
    results cache: the exact sweep gets the exact outcome, not the
    approximate one the first sweep stored."""
    monkeypatch.setenv("REPRO_FASTFWD", "1")
    fast = run_jobs([_fastfwd_probe_job()], workers=1)[0]

    monkeypatch.setenv("REPRO_FASTFWD", "0")
    exact_job = _fastfwd_probe_job()
    inline = execute_job(exact_job)
    assert fast.result != inline.result, "fast-forward skipped nothing"

    served = run_jobs([exact_job], workers=1)[0]
    assert served.result == inline.result
    assert len(list(cache_dir.rglob("*.pkl"))) == 2


def test_relative_throughputs_reuses_baseline(cache_dir):
    """A baseline that is also a scheme is simulated once and its
    column normalises to exactly 1.0."""
    config = small_system()
    mixes = [make_mix("sftn", 1)]
    rel = relative_throughputs(
        mixes, ["lru-sa16", "vantage-z4/16"], "lru-sa16", config, INSTRUCTIONS
    )
    assert rel["lru-sa16"] == [1.0]
    entries = [p for p in cache_dir.rglob("*.pkl")]
    assert len(entries) == 2  # baseline + vantage, not 3


def test_default_workers_env(monkeypatch):
    from repro.harness import default_workers

    monkeypatch.setenv("REPRO_WORKERS", "5")
    assert default_workers() == 5
    monkeypatch.delenv("REPRO_WORKERS")
    assert default_workers() >= 1


def test_pool_chunksize_preserves_job_order(cache_dir):
    """``run_jobs`` batches pool dispatches when jobs outnumber
    workers 4:1 (computed chunksize > 1); ``pool.map`` must still
    return outcomes in job order."""
    config = small_system()
    mixes = [make_mix(cls, 1) for cls in ("sftn", "ttnn", "stnn")]
    # 18 distinct pending jobs over 2 workers -> chunksize 2.
    jobs = [
        SimJob(mix, scheme, config, 2_000, seed=seed)
        for seed in (1, 2, 3)
        for scheme in SCHEMES
        for mix in mixes
    ]
    assert max(1, len(jobs) // (2 * 4)) > 1
    pooled = run_jobs(jobs, workers=2, use_cache=False)
    for job, outcome in zip(jobs, pooled):
        serial = run_mix(
            job.mix, job.scheme, job.config, job.instructions, seed=job.seed
        ).result
        assert outcome.result == serial


def test_worker_pool_used_when_requested(cache_dir):
    """Multi-worker path (ProcessPoolExecutor) agrees with inline."""
    if os.cpu_count() is None:
        pytest.skip("cpu_count unavailable")
    jobs = _jobs()[:2]
    pooled = run_jobs(jobs, workers=2, use_cache=False)
    inline = run_jobs(jobs, workers=1, use_cache=False)
    for a, b in zip(pooled, inline):
        assert a.result == b.result


# -- crash robustness and dedupe ordering (service-era satellites) -----

import signal
from types import SimpleNamespace

from concurrent.futures.process import BrokenProcessPool

_CRASH_SEED = 9999


def _crashy_execute(job):
    """First execution of the poisoned job SIGKILLs its worker.

    A flag file (inherited through the environment by forked pool
    workers) makes the crash happen exactly once, so the retry pass
    completes normally.
    """
    flag = os.environ.get("REPRO_TEST_CRASH_FLAG")
    if job.seed == _CRASH_SEED and flag and not os.path.exists(flag):
        with open(flag, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    # The module-level name was bound at import, before the test
    # monkeypatched ``parallel.execute_job``: it is the original.
    return execute_job(job)


def test_worker_crash_resubmits_unfinished_jobs(
    cache_dir, monkeypatch, tmp_path
):
    """A worker dying mid-sweep loses only unfinished jobs: the sweep
    retries them on a fresh pool and every outcome is still identical
    to a serial run."""
    from repro.harness import parallel

    flag = tmp_path / "crashed-once"
    monkeypatch.setenv("REPRO_TEST_CRASH_FLAG", str(flag))
    monkeypatch.setattr(parallel, "execute_job", _crashy_execute)
    config = small_system()
    mix = make_mix("sftn", 1)
    jobs = [
        SimJob(mix, "lru-sa16", config, 4_000, seed=seed)
        for seed in (_CRASH_SEED, 5, 6, 7)
    ]
    failures_before = parallel.POOL_FAILURES
    retried_before = parallel.JOBS_RETRIED
    outcomes = run_jobs(jobs, workers=2, use_cache=False)
    assert flag.exists()  # the crash really happened
    assert parallel.POOL_FAILURES == failures_before + 1
    assert parallel.JOBS_RETRIED > retried_before
    for job, outcome in zip(jobs, outcomes):
        serial = run_mix(
            job.mix, job.scheme, job.config, job.instructions, seed=job.seed
        ).result
        assert outcome.result == serial


def test_inline_fallback_after_repeated_pool_failures(cache_dir, monkeypatch):
    """A host that keeps killing pools still finishes the sweep: after
    MAX_POOL_FAILURES losses the leftovers run inline."""
    from repro.harness import parallel

    class AlwaysBrokenPool:
        def __init__(self, max_workers=None, initializer=None):
            pass

        def map(self, fn, iterable, chunksize=1):
            raise BrokenProcessPool("synthetic pool loss")

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", AlwaysBrokenPool)
    jobs = _jobs()[:2]
    failures_before = parallel.POOL_FAILURES
    outcomes = run_jobs(jobs, workers=2, use_cache=False)
    assert parallel.POOL_FAILURES == failures_before + parallel.MAX_POOL_FAILURES
    for job, outcome in zip(jobs, outcomes):
        serial = run_mix(
            job.mix, job.scheme, job.config, job.instructions, seed=job.seed
        ).result
        assert outcome.result == serial


def test_uncached_dedupe_preserves_submission_order(cache_dir, monkeypatch):
    """With use_cache=False, interleaved duplicates still coalesce to
    one execution each and outcomes come back in submission order."""
    from repro.harness import parallel

    executed = []

    def fake_execute(job):
        executed.append(job.seed)
        return SimpleNamespace(wall_time_s=None, marker=job.seed)

    monkeypatch.setattr(parallel, "execute_job", fake_execute)
    config = small_system()
    mix = make_mix("sftn", 1)
    seeds = [1, 2, 1, 3, 2, 1]
    jobs = [
        SimJob(mix, "lru-sa16", config, INSTRUCTIONS, seed=s) for s in seeds
    ]
    outcomes = run_jobs(jobs, workers=1, use_cache=False)
    assert [o.marker for o in outcomes] == seeds
    assert executed == [1, 2, 3]  # one execution per unique job
    assert outcomes[0] is outcomes[2] is outcomes[5]  # shared outcome
    assert not cache_dir.exists()  # nothing persisted


def test_uncached_pooled_run_matches_serial(cache_dir):
    """The real multi-worker path with use_cache=False (previously
    only the cached path was parity-tested)."""
    jobs = _jobs()
    pooled = run_jobs(jobs + jobs[:2], workers=2, use_cache=False)
    for job, outcome in zip(jobs + jobs[:2], pooled):
        serial = run_mix(
            job.mix, job.scheme, job.config, job.instructions, seed=job.seed
        ).result
        assert outcome.result == serial
    assert not cache_dir.exists()


def test_corrupt_cache_entry_is_dropped_and_counted(cache_dir):
    """A torn or unpicklable cache file is a miss, not an error: the
    bad entry is deleted, counted, and the sweep re-simulates."""
    job = _jobs()[0]
    key = results_cache.job_key(job)
    path = results_cache._entry_path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"\x80\x04 torn garbage, not a pickle")
    corrupt_before = results_cache.CORRUPT
    assert results_cache.load(key) is None
    assert results_cache.CORRUPT == corrupt_before + 1
    assert not path.exists()
    assert results_cache.counters()["corrupt_entries"] >= 1
    # The sweep recovers transparently and re-stores a good entry.
    outcomes = run_jobs([job], workers=1)
    serial = run_mix(
        job.mix, job.scheme, job.config, job.instructions, seed=job.seed
    ).result
    assert outcomes[0].result == serial
    assert results_cache.load(key).result == serial


def test_worker_init_ignores_sigint():
    """Pool workers must leave SIGINT to the parent (no traceback
    spray on Ctrl-C)."""
    from repro.harness import parallel

    previous = signal.getsignal(signal.SIGINT)
    try:
        parallel.worker_init()
        assert signal.getsignal(signal.SIGINT) == signal.SIG_IGN
    finally:
        signal.signal(signal.SIGINT, previous)
