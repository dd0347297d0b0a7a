"""Parallel experiment execution.

Every figure in the paper is an embarrassingly parallel sweep: many
independent ``run_mix`` simulations whose results are only combined
at the end.  This module expresses one simulation as a picklable
:class:`SimJob`, fans a job list over the resident daemon's worker
pool (:class:`repro.service.workers.WorkerPool`, driven in process,
with no socket), and memoises outcomes through
:mod:`repro.harness.results_cache`.

Determinism: a job carries every input that influences its
simulation -- including all seeds -- and workers run exactly the same
:func:`~repro.harness.runner.run_mix` code path as a serial call, so
``run_jobs`` output is bitwise-identical to running each job serially
(asserted by ``tests/harness/test_parallel.py``).  Duplicate jobs are
deduplicated before submission, which is also what lets a sweep share
one baseline simulation across schemes.

The building blocks are exported separately because the resident
daemon (:mod:`repro.service`) reuses them: :func:`plan_jobs` performs
the dedupe/cache split, :func:`execute_job` is the worker-side entry
point, :func:`preload` imports what it runs before a pool forks,
:func:`publish_traces` writes a job's trace chunks into the
shared chunk layer (:mod:`repro.traces.store`), and
:func:`record_outcome` is the telemetry/persistence tail.  ``run_jobs``
has the pool's failure model (a crashed worker is respawned and its
job retried) plus one rule of its own: any job the pool gives up on
runs inline in this process, so a sweep on a host that keeps killing
workers still finishes, and a job that raises surfaces its own
exception.

Knobs: ``REPRO_WORKERS``, ``REPRO_TRACE_CACHE``, ``REPRO_TRACE_SHM``
and ``REPRO_FED_GATEWAY`` (see :mod:`repro.options`); a gateway that
fails some jobs leaves them to the local pool.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro import lazy, options, traces
from repro.analysis.stats import SizeTimeSeries
from repro.core import VantageConfig
from repro.harness import results_cache
from repro.sim import SystemConfig, SystemResult
from repro.telemetry import Distribution
from repro.workloads import Mix

#: Wall-time distribution over jobs executed by this process (fresh
#: simulations only; cache hits cost no simulation time).
JOB_WALL_TIME = Distribution("job_wall_time", "per-job wall time, seconds")

#: Process-wide supervision counters (read by the harness stats tree),
#: summed over the worker pools ``run_jobs`` has driven.
POOL_FAILURES = 0
JOBS_RETRIED = 0

#: Federation fan-out counters: jobs satisfied through the gateway,
#: and jobs that fell back to the local pool after a gateway failure.
FED_JOBS = 0
FED_FALLBACKS = 0


def register_stats(group) -> None:
    """Register harness-level telemetry (job timing, results cache)."""
    group.stat(
        "jobs_executed",
        lambda: JOB_WALL_TIME.count,
        "simulations actually executed (cache misses)",
    )
    group.stat(
        "job_wall_time",
        JOB_WALL_TIME.value,
        "per-job wall time distribution, seconds",
    )
    for name, desc in (
        ("pool_failures", "pool workers respawned after a crash"),
        ("jobs_retried", "jobs re-queued after their worker died"),
        ("fed_jobs", "jobs satisfied through the federation gateway"),
        ("fed_fallbacks", "jobs run locally after the gateway failed them"),
    ):
        group.stat(name, lambda name=name: globals()[name.upper()], desc)
    results_cache.register_stats(
        group.group("results_cache", "on-disk result cache")
    )
    traces.register_stats(
        group.group("trace_store", "compiled trace-chunk store")
    )


@dataclass(frozen=True)
class SimJob:
    """One simulation, fully described by picklable values.

    Mirrors the signature of :func:`~repro.harness.runner.run_mix`;
    ``vantage_config`` overrides the scheme's default Vantage
    parameters (Figure 9's u-sweep).
    """

    mix: Mix
    scheme: str
    config: SystemConfig
    instructions: int
    seed: int = 0
    partitioned: bool | None = None
    size_sample_cycles: int | None = None
    use_l1: bool = False
    vantage_config: VantageConfig | None = None


@dataclass
class SimOutcome:
    """The picklable portion of a simulation's products.

    Live ``cache``/``system`` objects stay in the worker; figures
    consume the result, the Figure-8 size series, and the Figure-9
    managed-eviction fraction.
    """

    result: SystemResult
    size_series: SizeTimeSeries | None = None
    managed_eviction_fraction: float | None = None
    #: Snapshot of the run's stats tree.  Excluded from equality: the
    #: simulation outputs above are bitwise-deterministic, telemetry
    #: (gated counters, wall time) legitimately is not.
    stats: dict | None = field(default=None, compare=False)
    wall_time_s: float | None = field(default=None, compare=False)
    #: Cumulative trace-store counters of the executing process after
    #: this job (``shm_hits`` et al.) -- how sweeps observe that
    #: workers really mapped shared chunk files.  Excluded from
    #: equality like the other telemetry.
    trace_counters: dict | None = field(default=None, compare=False)


def default_workers() -> int:
    """``REPRO_WORKERS``; unset or empty means the CPU count."""
    return options.get("REPRO_WORKERS") or os.cpu_count() or 1


def preload() -> None:
    """Import what :func:`execute_job` runs: numpy (through
    :func:`repro.lazy.load_numpy`) and the runner.

    The worker pool calls this at its fork point, so its workers share
    these modules' pages with their parent instead of each importing
    private copies at its first job; a job run inline calls it before
    building its system rather than part-way into its simulation.
    """
    lazy.load_numpy()
    import repro.harness.runner  # noqa: F401


def execute_job(job: SimJob) -> SimOutcome:
    """Run one job (in a worker process or inline)."""
    preload()
    from repro.harness.runner import run_mix

    start = time.perf_counter()
    run = run_mix(
        job.mix,
        job.scheme,
        job.config,
        job.instructions,
        seed=job.seed,
        partitioned=job.partitioned,
        size_sample_cycles=job.size_sample_cycles,
        use_l1=job.use_l1,
        vantage_config=job.vantage_config,
    )
    wall = time.perf_counter() - start
    fraction = None
    if hasattr(run.cache, "managed_eviction_fraction"):
        fraction = run.cache.managed_eviction_fraction()
    return SimOutcome(
        result=run.result,
        size_series=run.size_series,
        managed_eviction_fraction=fraction,
        stats=run.stats(),
        wall_time_s=wall,
        trace_counters=traces.get_store().counters(),
    )


def plan_jobs(
    jobs: list[SimJob], use_cache: bool = True
) -> tuple[list[str], dict[str, SimOutcome], list[tuple[str, SimJob]]]:
    """Dedupe ``jobs`` and split them into cached and pending work.

    Returns ``(keys, outcomes, pending)``: the per-job cache keys (in
    submission order, duplicates included), outcomes already satisfied
    by the on-disk cache, and the unique ``(key, job)`` pairs that
    still need a simulation -- in first-submission order.
    """
    keys = [results_cache.job_key(job) for job in jobs]
    outcomes: dict[str, SimOutcome] = {}
    pending: list[tuple[str, SimJob]] = []
    seen: set[str] = set()
    for key, job in zip(keys, jobs):
        if key in seen:
            continue
        seen.add(key)
        cached = results_cache.load(key) if use_cache else None
        if cached is not None:
            outcomes[key] = cached
        else:
            pending.append((key, job))
    return keys, outcomes, pending


def record_outcome(key: str, outcome: SimOutcome, use_cache: bool = True) -> None:
    """Account for a freshly simulated outcome and persist it."""
    if outcome.wall_time_s is not None:
        JOB_WALL_TIME.record(outcome.wall_time_s)
    if use_cache:
        results_cache.store(key, outcome)


def publish_traces(
    jobs: list[SimJob], published: dict[str, int] | None = None
) -> int:
    """Publish every distinct trace in ``jobs`` to the shared chunk
    layer.

    The owner half of ``REPRO_TRACE_SHM``: the worker pool calls this
    for each job before dispatching it, so its workers map the chunk
    files by content key instead of compiling one private copy each.
    ``published`` maps a trace key to the instruction count already
    published; traces it covers are skipped, which keeps resubmitted
    mixes from re-walking their chunk prefixes.  Returns the number of
    chunk files created.
    Best-effort throughout -- a trace that fails to publish simply
    stays on the private layers (and a genuinely broken trace reports
    its real error from the worker that simulates it, not from here).
    """
    if not traces.shm_enabled():
        return 0
    if published is None:
        published = {}
    store = traces.get_store()
    created = 0
    for job in jobs:
        try:
            factories = job.mix.trace_factories(job.seed)
        except Exception:
            continue
        for spec in factories:
            if not isinstance(spec, traces.TraceSpec):
                continue
            key = store.key_of(spec)
            if published.get(key, -1) >= job.instructions:
                continue
            try:
                created += store.publish_prefix(spec, job.instructions)
            except Exception:
                continue
            if len(published) >= 4096:
                published.clear()
            published[key] = job.instructions
    return created


def _run_on_workers(
    pending: list[tuple[str, SimJob]], workers: int, use_cache: bool
) -> dict[str, SimOutcome]:
    """Run ``pending`` on a :class:`~repro.service.workers.WorkerPool`
    of ``workers`` processes, the daemon's executor, in this process.

    Returns the outcomes of the entries the pool finished (already
    recorded); an entry it failed is missing, for the caller to run
    inline.  The workers are stopped before this returns or raises.
    """
    global POOL_FAILURES, JOBS_RETRIED
    # Imported here: setup and inline sweeps never pay for them.
    import asyncio

    from repro.service import protocol
    from repro.service.jobqueue import JobQueue
    from repro.service.workers import WorkerPool

    pool = WorkerPool(workers)

    async def drive() -> list:
        queue = JobQueue(
            maxsize=None,
            on_done=lambda entry, outcome: record_outcome(
                entry.key, outcome, use_cache=use_cache
            ),
        )
        entries = [queue.submit(job)[0] for _, job in pending]
        try:
            await pool.start(queue)
            await asyncio.wait([entry.future for entry in entries])
        finally:
            queue.close()
            await pool.stop()
        return entries

    try:
        entries = asyncio.run(drive())
    finally:
        POOL_FAILURES += pool.restarts
        JOBS_RETRIED += pool.retries
    return {
        entry.key: entry.future.result()
        for entry in entries
        if entry.state == protocol.DONE
    }


def _run_federated(
    pending: list[tuple[str, SimJob]]
) -> dict[str, SimOutcome]:
    """Try to satisfy ``pending`` through the federation gateway.

    Returns the outcomes it obtained, keyed like ``pending``; missing
    keys (gateway unreachable, node-side failures) are the caller's to
    run locally.  Never raises -- federation is an accelerator, not a
    dependency.
    """
    global FED_JOBS, FED_FALLBACKS
    # Imported lazily: repro.federation imports SimJob from this module.
    from repro.federation import FederatedClient
    from repro.service.client import ServiceError

    got: dict[str, SimOutcome] = {}
    try:
        with FederatedClient() as fed:
            batch = fed.submit_batch([job for _, job in pending])
    except (ServiceError, OSError, ValueError):
        FED_FALLBACKS += len(pending)
        return got
    for (key, _), outcome in zip(pending, batch.outcomes):
        if outcome is not None:
            got[key] = outcome
            FED_JOBS += 1
        else:
            FED_FALLBACKS += 1
    return got


def run_jobs(
    jobs: list[SimJob],
    workers: int | None = None,
    use_cache: bool = True,
) -> list[SimOutcome]:
    """Run ``jobs`` and return their outcomes in job order.

    Identical jobs are simulated once; results already in the on-disk
    cache are not simulated at all.  ``workers=1`` (or a single
    pending job) runs inline, with no worker processes.  With
    ``REPRO_FED_GATEWAY`` set the pending work routes through the
    federation gateway first and only the leftovers (if the fleet
    failed any) run locally.
    """
    keys, outcomes, pending = plan_jobs(jobs, use_cache=use_cache)

    if pending and options.get("REPRO_FED_GATEWAY") is not None:
        federated = _run_federated(pending)
        for key, outcome in federated.items():
            # Persist locally so a later sweep in this process is a
            # plain cache hit; skip record_outcome -- the simulation
            # ran on a fleet node, so its wall time does not belong in
            # this process's jobs_executed telemetry.
            if use_cache:
                results_cache.store(key, outcome)
            outcomes[key] = outcome
        pending = [(k, j) for k, j in pending if k not in federated]

    if pending:
        if workers is None:
            workers = default_workers()
        workers = min(workers, len(pending))
        if workers > 1:
            outcomes.update(_run_on_workers(pending, workers, use_cache))
        for key, job in pending:
            if key not in outcomes:
                outcome = execute_job(job)
                record_outcome(key, outcome, use_cache=use_cache)
                outcomes[key] = outcome

    return [outcomes[key] for key in keys]
