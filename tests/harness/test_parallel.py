"""Determinism of the parallel harness and the results cache.

The guarantees under test:

- ``run_jobs`` over worker processes is bitwise-identical to running
  each job serially through ``run_mix``;
- a cache hit returns the same outcome as a fresh simulation;
- duplicate jobs (and a baseline repeated inside a scheme list) are
  simulated only once;
- every job field is part of the results-cache key, so jobs that
  differ in any input never share an outcome.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.core import VantageConfig
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
    """Perturbing any one ``SimJob`` field -- or one field of its
    ``SystemConfig`` -- changes the results-cache key."""
    config = small_system()
    mix = make_mix("sftn", 1)
    base = SimJob(mix, "lru-sa16", config, INSTRUCTIONS, seed=0)
    assert results_cache.job_key(base) == results_cache.job_key(
        SimJob(mix, "lru-sa16", config, INSTRUCTIONS, seed=0)
    )
    perturbed = {
        "mix": make_mix("ttnn", 1),
        "scheme": "vantage-z4/16",
        "config": dataclasses.replace(config, epoch_cycles=config.epoch_cycles + 1),
        "instructions": INSTRUCTIONS + 1,
        "seed": 1,
        "partitioned": True,
        "size_sample_cycles": 1_000,
        "use_l1": True,
        "vantage_config": VantageConfig(unmanaged_fraction=0.3),
    }
    # A new SimJob field must get a perturbation here.
    assert set(perturbed) == {f.name for f in dataclasses.fields(SimJob)}
    for name, value in perturbed.items():
        assert getattr(base, name) != value, name
    keys = {
        results_cache.job_key(dataclasses.replace(base, **{name: value}))
        for name, value in perturbed.items()
    }
    assert results_cache.job_key(base) not in keys
    assert len(keys) == len(perturbed)


def _probe_job(vantage_config: VantageConfig | None = None) -> SimJob:
    """A job whose outcome changes with its ``vantage_config``."""
    return SimJob(
        make_mix("sftn", 1),
        "vantage-z4/52",
        small_system(l2_bytes=64 * 1024, epoch_cycles=20_000),
        30_000,
        seed=0,
        vantage_config=vantage_config,
    )


def test_vantage_config_sweep_does_not_poison_default_results(cache_dir):
    """A sweep with an overridden ``vantage_config``, then a default
    sweep in the same results cache: the default sweep gets its own
    outcome, not the one the first sweep stored."""
    variant = run_jobs(
        [_probe_job(VantageConfig(unmanaged_fraction=0.3))], workers=1
    )[0]

    default_job = _probe_job()
    inline = execute_job(default_job)
    assert variant.result != inline.result, "the override changed nothing"

    served = run_jobs([default_job], workers=1)[0]
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
    monkeypatch.setenv("REPRO_WORKERS", "")
    assert default_workers() >= 1


@pytest.mark.parametrize("value", ["abc", "2.5", "0", "-3"])
def test_default_workers_rejects_bad_env(monkeypatch, value):
    """Non-integers and counts below 1 fail with one error naming the
    variable, instead of a bare int() traceback or a silent 1."""
    from repro.harness import default_workers

    monkeypatch.setenv("REPRO_WORKERS", value)
    with pytest.raises(ValueError, match="REPRO_WORKERS"):
        default_workers()


def test_pool_chunksize_preserves_job_order(cache_dir):
    """Jobs that outnumber the workers 9:1 finish in whatever order
    the slots free up; ``run_jobs`` must still return outcomes in job
    order."""
    config = small_system()
    mixes = [make_mix(cls, 1) for cls in ("sftn", "ttnn", "stnn")]
    # 18 distinct pending jobs over 2 workers.
    jobs = [
        SimJob(mix, scheme, config, 2_000, seed=seed)
        for seed in (1, 2, 3)
        for scheme in SCHEMES
        for mix in mixes
    ]
    pooled = run_jobs(jobs, workers=2, use_cache=False)
    for job, outcome in zip(jobs, pooled):
        serial = run_mix(
            job.mix, job.scheme, job.config, job.instructions, seed=job.seed
        ).result
        assert outcome.result == serial


def test_worker_pool_used_when_requested(cache_dir):
    """Multi-worker path (the worker pool) agrees with inline."""
    if os.cpu_count() is None:
        pytest.skip("cpu_count unavailable")
    jobs = _jobs()[:2]
    pooled = run_jobs(jobs, workers=2, use_cache=False)
    inline = run_jobs(jobs, workers=1, use_cache=False)
    for a, b in zip(pooled, inline):
        assert a.result == b.result


def test_run_jobs_leaves_the_callers_gc_as_it_was(cache_dir, monkeypatch):
    """The pool forks its workers from a frozen heap, and thaws it
    when it stops: the caller's freeze count and GC switch are
    unchanged afterwards."""
    import gc

    from repro.service import workers

    at_fork = []

    class Recording(workers.WorkerProcess):
        def __init__(self):
            at_fork.append(gc.get_freeze_count())
            super().__init__()

    monkeypatch.setattr(workers, "WorkerProcess", Recording)
    before = (gc.get_freeze_count(), gc.isenabled())
    run_jobs(_jobs()[:2], workers=2, use_cache=False)
    assert len(at_fork) == 2 and min(at_fork) > 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


# -- crash robustness and dedupe ordering (service-era satellites) -----

import multiprocessing
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from types import SimpleNamespace

_CRASH_SEED = 9999


def _serial_result(job):
    return run_mix(
        job.mix, job.scheme, job.config, job.instructions, seed=job.seed
    ).result


def _crashy_execute(job):
    """First execution of the poisoned job SIGKILLs its worker.

    A flag file (inherited through the environment by forked pool
    workers) makes the crash happen exactly once, so the retry
    completes normally.
    """
    flag = os.environ.get("CRASH_ONCE_FLAG")
    if job.seed == _CRASH_SEED and flag and not os.path.exists(flag):
        with open(flag, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    # The module-level name was bound at import, before the test
    # monkeypatched ``workers.execute_job``: it is the original.
    return execute_job(job)


def test_worker_crash_resubmits_unfinished_jobs(
    cache_dir, monkeypatch, tmp_path
):
    """A worker dying mid-sweep loses only its own job: the pool
    respawns the worker, retries the job, and every outcome is still
    identical to a serial run."""
    from repro.harness import parallel
    from repro.service import workers

    flag = tmp_path / "crashed-once"
    monkeypatch.setenv("CRASH_ONCE_FLAG", str(flag))
    monkeypatch.setattr(workers, "execute_job", _crashy_execute)
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
    assert parallel.JOBS_RETRIED == retried_before + 1
    for job, outcome in zip(jobs, outcomes):
        assert outcome.result == _serial_result(job)


def test_inline_fallback_after_repeated_pool_failures(cache_dir, monkeypatch):
    """A host that keeps killing workers still finishes the sweep: a
    job whose worker always dies is given up by the pool after its
    retries and runs inline in the caller."""
    from repro.harness import parallel
    from repro.service import workers

    caller = os.getpid()

    def always_dies(job):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return execute_job(job)

    monkeypatch.setattr(workers, "execute_job", always_dies)
    jobs = _jobs()[:2]
    failures_before = parallel.POOL_FAILURES
    outcomes = run_jobs(jobs, workers=2, use_cache=False)
    assert parallel.POOL_FAILURES >= failures_before + len(jobs)
    for job, outcome in zip(jobs, outcomes):
        assert outcome.result == _serial_result(job)


def test_raising_job_surfaces_its_own_exception(cache_dir):
    """A job that raises in a pool worker reaches the caller as its
    own exception type, not the pool's error string, and the pool's
    workers are gone by then."""
    before = set(multiprocessing.active_children())
    good = _jobs()[0]
    bad = dataclasses.replace(good, instructions=0)
    with pytest.raises(ValueError, match="instructions_per_core"):
        run_jobs([good, bad], workers=2, use_cache=False)
    assert set(multiprocessing.active_children()) <= before


def _alive(pid: int) -> bool:
    """Whether ``pid`` is a live (not zombie) process."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_sigint_during_pooled_run_jobs_stops_every_worker(tmp_path):
    """Ctrl-C on a two-worker sweep: the caller dies of
    ``KeyboardInterrupt`` and takes its workers with it."""
    pids = tmp_path / "pids"
    pids.mkdir()
    code = textwrap.dedent(
        f"""
        import os, time
        from repro.harness import SimJob, parallel, run_jobs
        from repro.service import workers
        from repro.sim import small_system
        from repro.workloads import make_mix

        def stall(job):
            open(os.path.join({str(pids)!r}, str(os.getpid())), "w").close()
            time.sleep(600)

        # Every job stalls, wherever it runs.
        parallel.execute_job = workers.execute_job = stall
        jobs = [
            SimJob(make_mix("sftn", 1), "lru-sa16", small_system(), 2_000, seed=s)
            for s in (1, 2)
        ]
        run_jobs(jobs, workers=2, use_cache=False)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-c", code],
        stderr=subprocess.PIPE,
        env=env,
        start_new_session=True,  # its own group, as a terminal's job
    )
    try:
        deadline = time.monotonic() + 60
        while len(list(pids.iterdir())) < 2:
            assert proc.poll() is None, proc.stderr.read().decode()
            assert time.monotonic() < deadline, "workers never started"
            time.sleep(0.05)
        worker_pids = [int(p.name) for p in pids.iterdir()]
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode != 0
    assert "KeyboardInterrupt" in err.decode()
    assert not [pid for pid in worker_pids if _alive(pid)]


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


def test_worker_ignores_sigint():
    """Pool workers leave SIGINT to the parent (no traceback spray on
    Ctrl-C): a live worker survives one and still answers a job."""
    from repro.service.workers import WorkerProcess

    job = _jobs()[0]
    worker = WorkerProcess()
    try:
        # A first job proves the worker is inside its loop, past the
        # point where it ignores SIGINT.
        first = worker.run(job, timeout=120)
        os.kill(worker.pid, signal.SIGINT)
        again = worker.run(job, timeout=120)
    finally:
        worker.stop()
    assert first.result == again.result == _serial_result(job)
