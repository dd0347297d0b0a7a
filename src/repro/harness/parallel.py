"""Parallel experiment execution.

Every figure in the paper is an embarrassingly parallel sweep: many
independent ``run_mix`` simulations whose results are only combined
at the end.  This module expresses one simulation as a picklable
:class:`SimJob`, fans a job list over a ``ProcessPoolExecutor``, and
memoises outcomes through :mod:`repro.harness.results_cache`.

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
point, and :func:`record_outcome` is the telemetry/persistence tail.
``run_jobs`` itself survives worker crashes: a ``BrokenProcessPool``
loses only the not-yet-returned jobs, which are resubmitted to a
fresh pool (after :data:`MAX_POOL_FAILURES` pool losses the leftovers
run inline in this process).

Environment knobs:

- ``REPRO_WORKERS``: worker process count (default: CPU count).
- ``REPRO_TRACE_CACHE``: directory for the on-disk trace-chunk store
  (see :mod:`repro.traces`); with it set, workers share compiled
  address streams across jobs instead of each regenerating them.
- ``REPRO_TRACE_SHM``: ``1`` adds a publish phase before the fan-out
  -- the parent compiles-or-loads each distinct trace once into
  shared-memory segments and workers attach zero-copy instead of
  compiling privately (see :mod:`repro.traces.shm`).
- ``REPRO_FED_GATEWAY``: an address (``host:port`` or a Unix socket
  path) routes the fan-out through a federation gateway
  (:mod:`repro.federation`) instead of a local worker pool -- the
  gateway consistent-hash spreads the jobs over its daemon fleet.  An
  unreachable gateway (or a partially failed batch) falls back to the
  local pool for whatever is still missing, so a sweep never fails
  just because the fleet did.
"""

from __future__ import annotations

import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro import traces
from repro.analysis.stats import SizeTimeSeries
from repro.core import VantageConfig
from repro.harness import results_cache
from repro.harness.env import fastfwd_requested, fastfwd_tolerance
from repro.sim import SystemConfig, SystemResult
from repro.telemetry import Distribution
from repro.workloads import Mix

#: Wall-time distribution over jobs executed by this process (fresh
#: simulations only; cache hits cost no simulation time).
JOB_WALL_TIME = Distribution("job_wall_time", "per-job wall time, seconds")

#: Pool losses tolerated per ``run_jobs`` call before the remaining
#: jobs fall back to inline execution in the calling process.
MAX_POOL_FAILURES = 2

#: Process-wide supervision counters (read by the harness stats tree).
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
    group.stat(
        "pool_failures",
        lambda: POOL_FAILURES,
        "worker pools lost to crashed processes",
    )
    group.stat(
        "jobs_retried",
        lambda: JOBS_RETRIED,
        "jobs resubmitted after a pool failure",
    )
    group.stat(
        "fed_jobs",
        lambda: FED_JOBS,
        "jobs satisfied through the federation gateway",
    )
    group.stat(
        "fed_fallbacks",
        lambda: FED_FALLBACKS,
        "jobs run locally after the gateway failed them",
    )
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

    ``fastfwd`` / ``fastfwd_tol`` select analytical fast-forward and
    its detector tolerance.  Their defaults are read from
    ``REPRO_FASTFWD`` / ``REPRO_FASTFWD_TOL`` once, when the job is
    built, and validated there; after that the job -- and so its
    results-cache key -- carries them, so approximate and exact
    outcomes never share a key.
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
    fastfwd: bool = field(default_factory=fastfwd_requested)
    fastfwd_tol: float = field(default_factory=fastfwd_tolerance)

    def __post_init__(self) -> None:
        if not isinstance(self.fastfwd, bool):
            raise TypeError(f"fastfwd must be a bool, got {self.fastfwd!r}")
        if not (isinstance(self.fastfwd_tol, (int, float)) and self.fastfwd_tol >= 0):
            raise ValueError(
                f"fastfwd_tol must be a number >= 0, got {self.fastfwd_tol!r}"
            )


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
    #: workers really attached shared segments.  Excluded from
    #: equality like the other telemetry.
    trace_counters: dict | None = field(default=None, compare=False)


def default_workers() -> int:
    env = os.environ.get("REPRO_WORKERS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def worker_init() -> None:
    """Initializer for simulation worker processes.

    Workers ignore SIGINT: a Ctrl-C lands on the whole process group,
    and only the parent should act on it (shutting the pool down
    cleanly instead of every worker spraying a traceback).
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (OSError, ValueError):
        pass


def execute_job(job: SimJob) -> SimOutcome:
    """Run one job (in a worker process or inline)."""
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
        use_fastfwd=job.fastfwd,
        fastfwd_tol=job.fastfwd_tol,
    )
    wall = time.perf_counter() - start
    fraction = None
    cache = run.cache
    if hasattr(cache, "managed_eviction_fraction"):
        fraction = cache.managed_eviction_fraction()
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


def publish_traces(jobs: list[SimJob]) -> int:
    """Publish every distinct trace in ``jobs`` to the shared fabric.

    The owner half of ``REPRO_TRACE_SHM`` for batch sweeps: before
    fanning out, the parent scavenges segments orphaned by crashed
    runs, then compiles-or-loads each distinct ``TraceSpec`` once and
    publishes its chunk prefix, so workers attach by name instead of
    compiling one private copy each.  Returns the number of segments
    created.  Best-effort throughout -- a trace that fails to publish
    simply stays on the private layers (and a genuinely broken trace
    reports its real error from the worker that simulates it, not
    from here).
    """
    if not traces.shm_enabled():
        return 0
    traces.SharedChunkPool.scavenge()
    store = traces.get_store()
    wanted: dict[str, tuple[traces.TraceSpec, int]] = {}
    for job in jobs:
        try:
            factories = job.mix.trace_factories(job.seed)
        except Exception:
            continue
        for spec in factories:
            if not isinstance(spec, traces.TraceSpec):
                continue
            key = store.key_of(spec)
            prev = wanted.get(key)
            if prev is None or prev[1] < job.instructions:
                wanted[key] = (spec, job.instructions)
    created = 0
    for spec, instructions in wanted.values():
        try:
            created += store.publish_prefix(spec, instructions)
        except Exception:
            continue
    return created


def _run_pooled(jobs: list[SimJob], workers: int) -> list[SimOutcome]:
    """Execute ``jobs`` over worker processes, surviving crashes.

    ``pool.map`` yields outcomes in submission order, so when a worker
    dies mid-sweep (``BrokenProcessPool``) everything already yielded
    is kept and only the unfinished suffix is resubmitted to a fresh
    pool.  After :data:`MAX_POOL_FAILURES` pool losses the leftovers
    run inline: forward progress is guaranteed even on a host that
    keeps OOM-killing workers.
    """
    global POOL_FAILURES, JOBS_RETRIED
    outcomes: list[SimOutcome] = []
    remaining = list(jobs)
    failures = 0
    while remaining:
        if workers <= 1 or failures >= MAX_POOL_FAILURES:
            outcomes.extend(execute_job(job) for job in remaining)
            break
        # Batch jobs per worker dispatch: submitting one job at a
        # time pays a pickle round-trip per job, which dominates on
        # large sweeps of short simulations.  ``map`` keeps result
        # order aligned with ``remaining`` regardless of chunksize.
        chunksize = max(1, len(remaining) // (workers * 4))
        pool = ProcessPoolExecutor(
            max_workers=min(workers, len(remaining)), initializer=worker_init
        )
        done: list[SimOutcome] = []
        try:
            for outcome in pool.map(execute_job, remaining, chunksize=chunksize):
                done.append(outcome)
        except BrokenProcessPool:
            failures += 1
            POOL_FAILURES += 1
            outcomes.extend(done)
            remaining = remaining[len(done):]
            JOBS_RETRIED += len(remaining)
            pool.shutdown(wait=False, cancel_futures=True)
            continue
        except KeyboardInterrupt:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        outcomes.extend(done)
        remaining = []
        pool.shutdown(wait=True)
    return outcomes


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
    # Imported lazily: repro.federation itself imports SimJob from
    # this module, and the gateway address is only consulted when the
    # REPRO_FED_GATEWAY knob is actually set.
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

    if pending and os.environ.get("REPRO_FED_GATEWAY"):
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
            publish_traces([job for _, job in pending])
        fresh = _run_pooled([job for _, job in pending], workers)
        for (key, _), outcome in zip(pending, fresh):
            record_outcome(key, outcome, use_cache=use_cache)
            outcomes[key] = outcome

    return [outcomes[key] for key in keys]
