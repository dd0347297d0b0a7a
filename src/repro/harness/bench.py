"""``repro bench``: timed comparison of the fast simulation kernels
against the object path, the oracle they are pinned to.

The pinned micro-benchmark is the paper's headline kernel: the
``sftn1`` 4-core mix on the 2 MB small system under Vantage-Z4/52 --
the configuration that exercises the zcache replacement walk and the
Vantage demotion scan hardest.  ``lru-sa16`` rides along as a
secondary kernel covering the baseline-cache miss path.  120 000
instructions per core is enough to take the L2 from cold through its
high-occupancy steady state (including forced managed evictions)
while keeping a bench run under a minute.

Both sides of each kernel run in this process, best-of-``rounds``:
the fast path (batch kernels, with the single-access fused closures
for events they hand back) and the object path (the same cache with
its fused kernels removed, as under ``REPRO_FUSED=0``).  Their
:class:`~repro.sim.system.SystemResult`s are asserted *equal*: the
fast path is a strength reduction, not a behaviour change, so any
divergence fails the bench run loudly.

:func:`bench_trace_pipeline` additionally pins the trace feed (see
:mod:`repro.traces`): generator production versus warm chunk replay,
with equality asserted.

The run also measures the telemetry overhead on the headline kernel
(stats collection on vs off) and fails if it exceeds
:data:`STATS_OVERHEAD_BUDGET` -- the stats pipeline must stay cheap
enough to leave enabled everywhere.
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc
from pathlib import Path

from repro import telemetry
from repro.harness.runner import build_policy
from repro.harness.schemes import build_cache
from repro.partitioning.base_cache import fused_default
from repro.sim import CMPSystem
from repro.sim.configs import small_system
from repro.workloads import make_mix

#: The pinned micro-benchmark (do not change without re-baselining).
MIX_CLASS = "sftn"
MIX_INDEX = 1
SEED = 0
INSTRUCTIONS = 120_000
ROUNDS = 3
SMOKE_INSTRUCTIONS = 15_000

#: Repartitioning epoch for bench runs.  The small system's default
#: epoch (5M cycles) is longer than the whole pinned run, which would
#: leave the allocation path (UMON curve read-out, Lookahead,
#: ``set_allocations``) outside the benchmark entirely.  150k cycles
#: puts several epoch boundaries inside even the smoke run, so the
#: bench exercises -- and the equality assertions pin -- repartitioning
#: under both kernel paths, and ``policy.last_allocation`` is
#: guaranteed non-empty afterwards (asserted in :func:`run_bench`).
BENCH_EPOCH_CYCLES = 150_000

#: Maximum fractional slowdown stats collection may cost on the
#: headline kernel (full runs).  Smoke runs use the looser smoke
#: budget: a 15k-instruction run is dominated by timing noise, and the
#: smoke step exists to exercise the guard, not to measure precisely.
STATS_OVERHEAD_BUDGET = 0.05
SMOKE_STATS_OVERHEAD_BUDGET = 0.50

#: (scheme, partitioned) kernels; the first entry is the headline.
KERNELS = (
    ("vantage-z4/52", True),
    ("lru-sa16", False),
)

#: The pinned sweep benchmark (``repro bench --sweep``): a fig-6-style
#: multi-scheme mini-sweep over the headline mix, run as successive
#: ``run_jobs`` fan-outs the way figure scripts and service clients
#: issue them.  Every round replays the *same* traces under different
#: schemes, so without the shared-memory fabric each round's fresh
#: worker pool re-compiles every chunk privately; with
#: ``REPRO_TRACE_SHM=1`` the first round publishes once and every
#: later worker attaches zero-copy.  Two workers is the floor that
#: exercises cross-process sharing while fitting CI runners.
SWEEP_ROUNDS = (
    ("vantage-z4/52", "lru-sa16"),
    ("drrip-z4/16", "waypart-sa16"),
    ("ta-drrip-sa16", "srrip-sa16"),
)
#: Smoke rounds keep two schemes per round: a single pending job
#: would run inline (no pool, no publish phase) and exercise nothing.
SWEEP_SMOKE_ROUNDS = (
    ("vantage-z4/52", "lru-sa16"),
    ("drrip-z4/16", "srrip-sa16"),
)
SWEEP_SEEDS = (0, 1, 2)
SWEEP_SMOKE_SEEDS = (0,)
SWEEP_INSTRUCTIONS = 60_000
SWEEP_SMOKE_INSTRUCTIONS = 12_000
SWEEP_WORKERS = 2


def _run_once(
    scheme: str,
    partitioned: bool,
    instructions: int,
    object_path: bool,
    use_fastfwd: bool = False,
):
    """Build a fresh system and time one simulation of the kernel.

    ``object_path`` drops the cache's fused kernels before the run
    (``cache._remove_fused()``, the per-instance equivalent of
    ``REPRO_FUSED=0``), which also switches the batch layer off.
    Returns ``(elapsed, result, tree, policy)`` with the run's stats
    tree.  The simulation is exact unless ``use_fastfwd`` is set;
    only :func:`bench_fastfwd` sets it.
    """
    config = small_system(epoch_cycles=BENCH_EPOCH_CYCLES)
    mix = make_mix(MIX_CLASS, MIX_INDEX)
    cache = build_cache(scheme, config.l2_lines, config.num_cores, seed=SEED)
    if object_path:
        cache._remove_fused()
    policy = build_policy(cache, config, SEED) if partitioned else None
    system = CMPSystem(
        cache,
        mix.trace_factories(SEED),
        config,
        policy=policy,
        use_fastfwd=use_fastfwd,
    )
    tree = telemetry.system_tree(cache=cache, system=system, policy=policy)
    start = time.perf_counter()
    result = system.run(instructions)
    return time.perf_counter() - start, result, tree, policy


def _peak_kib(scheme: str, partitioned: bool, instructions: int, object_path: bool):
    """Peak traced allocation (KiB) of one untimed build+run."""
    tracemalloc.start()
    try:
        _run_once(scheme, partitioned, instructions, object_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return round(peak / 1024, 1)


def bench_kernel(
    scheme: str, partitioned: bool, instructions: int, rounds: int
) -> dict:
    """Best-of-``rounds`` times for the fast path and the object path.

    A separate, untimed run of each side under :mod:`tracemalloc`
    records the peak allocation footprint (tracing slows execution far
    too much to share a run with the timing loop).
    """
    opt_best = obj_best = None
    opt_result = obj_result = None
    opt_tree = None
    opt_policy = None
    for _ in range(rounds):
        elapsed, opt_result, opt_tree, opt_policy = _run_once(
            scheme, partitioned, instructions, False
        )
        if opt_best is None or elapsed < opt_best:
            opt_best = elapsed
        elapsed, obj_result, _, _ = _run_once(
            scheme, partitioned, instructions, True
        )
        if obj_best is None or elapsed < obj_best:
            obj_best = elapsed
    return {
        "scheme": scheme,
        "partitioned": partitioned,
        "instructions": instructions,
        "rounds": rounds,
        "optimized_s": round(opt_best, 4),
        "object_s": round(obj_best, 4),
        "speedup_vs_object": round(obj_best / opt_best, 3) if opt_best else 0.0,
        "optimized_peak_kib": _peak_kib(scheme, partitioned, instructions, False),
        "object_peak_kib": _peak_kib(scheme, partitioned, instructions, True),
        "identical": opt_result == obj_result,
        "last_allocation": (
            list(opt_policy.last_allocation) if opt_policy is not None else None
        ),
        "stats": opt_tree.snapshot() if opt_tree is not None else None,
    }


#: Pairs per core the trace-feed micro-kernel produces/replays.
FEED_PAIRS = 50_000


def bench_trace_pipeline(rounds: int) -> dict:
    """The trace feed's speedup on the pinned mix.

    Pulls ``FEED_PAIRS`` pairs per core of the pinned mix through
    fresh generators versus walking warm chunk buffers: the trace-path
    speedup the chunk store delivers to every job in a sweep after the
    first.  Both walks must produce the same checksum.
    """
    from repro import traces

    store = traces.get_store()
    mix = make_mix(MIX_CLASS, MIX_INDEX)
    specs = [
        app.trace_spec(base=core << 44, seed=SEED * 1000 + core)
        for core, app in enumerate(mix.apps)
    ]

    def feed_generator() -> int:
        checksum = 0
        for spec in specs:
            nxt = spec.generator().__next__
            for _ in range(FEED_PAIRS):
                gap, addr = nxt()
                checksum += gap + addr
        return checksum

    def feed_chunks() -> int:
        checksum = 0
        for spec in specs:
            index = 0
            buf = store.chunk_list(spec, 0)
            limit = len(buf)
            pos = 0
            for _ in range(FEED_PAIRS):
                if pos >= limit:
                    index += 1
                    buf = store.chunk_list(spec, index)
                    limit = len(buf)
                    pos = 0
                checksum += buf[pos] + buf[pos + 1]
                pos += 2
        return checksum

    feed_chunks()  # warm any chunks past the kernel's reach
    feed_gen_best = feed_chunk_best = None
    gen_sum = chunk_sum = None
    for _ in range(rounds):
        start = time.perf_counter()
        gen_sum = feed_generator()
        elapsed = time.perf_counter() - start
        if feed_gen_best is None or elapsed < feed_gen_best:
            feed_gen_best = elapsed
        start = time.perf_counter()
        chunk_sum = feed_chunks()
        elapsed = time.perf_counter() - start
        if feed_chunk_best is None or elapsed < feed_chunk_best:
            feed_chunk_best = elapsed

    return {
        "mix": f"{MIX_CLASS}{MIX_INDEX}",
        "rounds": rounds,
        "feed": {
            "pairs_per_core": FEED_PAIRS,
            "generator_s": round(feed_gen_best, 4),
            "chunk_s": round(feed_chunk_best, 4),
            "speedup": (
                round(feed_gen_best / feed_chunk_best, 3)
                if feed_chunk_best
                else 0.0
            ),
            "identical": gen_sum == chunk_sum,
        },
        "store": store.counters(),
    }


def bench_fastfwd(instructions: int, rounds: int) -> dict:
    """The analytical fast-forward layer on the pinned headline kernel.

    Times the headline mix with fast-forward pinned on
    (``use_fastfwd=True``) against the exact fast path
    (``use_fastfwd=False``) and against the object path.  The object
    path is re-timed *here*, in the same round loop, rather than
    reusing the kernel section's number: on a shared host the minutes
    between bench sections are enough for load drift to skew a ratio
    whose sides were measured at different times, so every round times
    all three lanes back-to-back and the best of each is compared.
    Fast-forward replays converged epoch tails through the Vantage
    transfer-function model, so its output is
    *approximate by design*: instead of the equality assertion every
    other section carries, this one records the accuracy deltas the
    contract bounds (worst per-core miss-rate delta and final
    Lookahead-allocation delta versus the exact run) together with the
    skipped-access fraction, and :func:`run_bench` enforces the <=1%
    contract plus a nonzero skipped fraction on full runs.
    """
    scheme, _ = KERNELS[0]
    config = small_system(epoch_cycles=BENCH_EPOCH_CYCLES)
    mix = make_mix(MIX_CLASS, MIX_INDEX)

    def once(use_fastfwd: bool):
        cache = build_cache(
            scheme, config.l2_lines, config.num_cores, seed=SEED
        )
        policy = build_policy(cache, config, SEED)
        system = CMPSystem(
            cache,
            mix.trace_factories(SEED),
            config,
            policy=policy,
            use_fastfwd=use_fastfwd,
        )
        start = time.perf_counter()
        result = system.run(instructions)
        elapsed = time.perf_counter() - start
        return elapsed, (result, cache, policy, system)

    on_best = off_best = obj_best = None
    on = off = None
    for _ in range(rounds):
        elapsed, run = once(True)
        if on_best is None or elapsed < on_best:
            on_best, on = elapsed, run
        elapsed, run = once(False)
        if off_best is None or elapsed < off_best:
            off_best, off = elapsed, run
        elapsed, _, _, _ = _run_once(scheme, True, instructions, object_path=True)
        if obj_best is None or elapsed < obj_best:
            obj_best = elapsed

    on_result, on_cache, on_policy, on_system = on
    off_result, _, off_policy, _ = off
    ff = on_system.fastfwd
    worst_miss = max(
        abs(a - b)
        for a, b in zip(on_result.l2_miss_rates, off_result.l2_miss_rates)
    )
    total_units = on_cache.allocation_total
    alloc_delta = 0.0
    if on_policy.last_allocation and off_policy.last_allocation:
        alloc_delta = max(
            abs(a - b)
            for a, b in zip(
                on_policy.last_allocation, off_policy.last_allocation
            )
        ) / total_units
    return {
        "scheme": scheme,
        "instructions": instructions,
        "rounds": rounds,
        "enabled": bool(ff is not None and ff.enabled),
        "decline_reason": (
            ff.decline_reason if ff is not None else "no batch kernel (REPRO_FUSED=0)"
        ),
        "fastfwd_s": round(on_best, 4),
        "exact_s": round(off_best, 4),
        "speedup_vs_exact": (
            round(off_best / on_best, 3) if on_best else 0.0
        ),
        "object_s": round(obj_best, 4),
        "speedup_vs_object": (
            round(obj_best / on_best, 3) if on_best else 0.0
        ),
        "windows": ff.windows if ff is not None else 0,
        "triggers": ff.triggers if ff is not None else 0,
        "skips": ff.skips if ff is not None else 0,
        "aborts": ff.aborts if ff is not None else 0,
        "skipped_fraction": (
            round(ff.skipped_fraction(), 4) if ff is not None else 0.0
        ),
        "worst_miss_rate_delta": round(worst_miss, 5),
        "final_alloc_delta": round(alloc_delta, 5),
    }


#: The gated per-kernel ratio: object-path time over fast-path time.
RATIO = "speedup_vs_object"


def compare_reports(
    current: dict, baseline: dict, tolerance: float = 0.10
) -> list[str]:
    """Compare two bench reports; return regression descriptions.

    A kernel regresses when its speedup over the object path drops
    more than ``tolerance`` (fractional) below the baseline report's.
    Kernels missing from the baseline, or recorded there without that
    ratio (such as the retired reference-lane ``speedup`` rows in old
    history entries), are ignored, as are smoke-mode baselines (their
    ratios are timing noise).
    """
    regressions: list[str] = []
    if baseline.get("smoke"):
        return regressions
    base_kernels = {
        row["scheme"]: row for row in baseline.get("kernels", [])
    }
    for row in current.get("kernels", []):
        base = base_kernels.get(row["scheme"])
        if base is None or not base.get(RATIO):
            continue
        floor = base[RATIO] * (1.0 - tolerance)
        if row[RATIO] < floor:
            regressions.append(
                f"{row['scheme']}: speedup {row[RATIO]:.2f}x is more "
                f"than {tolerance:.0%} below the baseline "
                f"{base[RATIO]:.2f}x"
            )
    base_sweep = baseline.get("sweep")
    cur_sweep = current.get("sweep")
    if base_sweep and cur_sweep and base_sweep.get("shm_speedup"):
        floor = base_sweep["shm_speedup"] * (1.0 - tolerance)
        if (cur_sweep.get("shm_speedup") or 0.0) < floor:
            regressions.append(
                f"shm sweep: jobs/sec speedup "
                f"{cur_sweep.get('shm_speedup')}x is more than "
                f"{tolerance:.0%} below the baseline "
                f"{base_sweep['shm_speedup']:.2f}x"
            )
    return regressions


#: Per-kernel fields kept in a history entry: what compare_reports
#: reads, plus the raw timings behind the ratio for later inspection.
_HISTORY_KERNEL_FIELDS = (
    "scheme",
    "partitioned",
    "instructions",
    "optimized_s",
    "object_s",
    RATIO,
)
#: Fast-forward history is record-only (no gate): its headline ratio
#: folds in convergence behaviour, so machine noise aside, a "drop"
#: can be a legitimate accuracy-motivated tuning change.  The series
#: still shows the trajectory.
_HISTORY_FASTFWD_FIELDS = (
    "scheme",
    "fastfwd_s",
    "exact_s",
    "object_s",
    RATIO,
    "skipped_fraction",
)
#: Sweep-fabric history: the gated jobs/sec ratio plus the raw
#: numbers behind it.  The PSS ratio is recorded but not gated --
#: runner memory layout varies across hosts more than wall time does.
_HISTORY_SWEEP_FIELDS = (
    "jobs",
    "workers",
    "instructions",
    "shm_speedup",
    "pss_ratio",
    "identical",
)


def update_history(
    report: dict,
    path: str | Path,
    window: int = 5,
    tolerance: float = 0.10,
) -> tuple[list[str], int]:
    """Append ``report`` to the JSON history at ``path``, gating it
    against the best recent run.

    The history file holds a JSON list of slimmed bench entries, one
    per run.  Before appending, the report is compared (via
    :func:`compare_reports`) against a synthetic best-of baseline
    drawn from the last ``window`` non-smoke entries: per kernel
    scheme the highest recorded speedup over the object path.  Comparing against the best of a window rather than the
    previous run keeps one slow run from silently ratcheting the
    floor down across a sequence of runs.  Smoke reports are appended
    (so the record shows CI activity) but never compared in either
    direction -- their ratios are timing noise.

    Returns ``(regressions, compared)``: the regression descriptions
    and how many history entries the baseline was drawn from.  The
    entry is appended even when regressions are found, so the slow
    run stays visible in the record.
    """
    path = Path(path)
    if path.exists():
        history = json.loads(path.read_text())
        if not isinstance(history, list):
            raise ValueError(
                f"{path} is not a bench history (expected a JSON list)"
            )
    else:
        history = []

    recent = [entry for entry in history if not entry.get("smoke")][-window:]
    if report.get("smoke"):
        recent = []  # smoke ratios are noise: record the run, skip the gate
    regressions: list[str] = []
    if recent:
        best_kernels: dict[str, dict] = {}
        best_sweep: dict | None = None
        for entry in recent:
            for row in entry.get("kernels", []):
                best = best_kernels.get(row["scheme"])
                if best is None or row.get(RATIO, 0) > best.get(RATIO, 0):
                    best_kernels[row["scheme"]] = row
            sweep = entry.get("sweep")
            if sweep and sweep.get("shm_speedup") and (
                best_sweep is None
                or sweep["shm_speedup"] > best_sweep["shm_speedup"]
            ):
                best_sweep = sweep
        baseline = {
            "smoke": False,
            "kernels": list(best_kernels.values()),
            "sweep": best_sweep,
        }
        regressions = compare_reports(report, baseline, tolerance)

    entry = {
        "tag": report.get("tag"),
        "smoke": bool(report.get("smoke")),
        "unix_time": round(time.time(), 3),
        "kernels": [
            {k: row[k] for k in _HISTORY_KERNEL_FIELDS if k in row}
            for row in report.get("kernels", [])
        ],
    }
    ffd = report.get("fastfwd")
    if ffd and ffd.get("enabled"):
        entry["fastfwd"] = {
            k: ffd[k]
            for k in _HISTORY_FASTFWD_FIELDS
            if ffd.get(k) is not None
        }
    sweep = report.get("sweep")
    if sweep:
        entry["sweep"] = {
            k: sweep[k] for k in _HISTORY_SWEEP_FIELDS if sweep.get(k) is not None
        }
    history.append(entry)
    path.write_text(json.dumps(history, indent=2) + "\n")
    return regressions, len(recent)


def bench_stats_overhead(instructions: int, rounds: int) -> dict:
    """Time the headline optimized kernel with telemetry on vs off.

    Both runs must produce *equal* results (collection may never
    perturb the simulation); the fractional slowdown is the number the
    <5% budget is enforced against.

    The fused kernels pushed the headline run under a third of a
    second, where shared-host load noise (one-sided: contention only
    ever *inflates* a run) dwarfs the few-percent true overhead, so
    per-side best-of times no longer estimate it reliably.  Instead
    each round times an adjacent on/off pair (order alternating so
    monotonic drift biases both sides equally) and the guard uses the
    *minimum* per-pair ratio: a lower bound on the true overhead under
    one-sided noise, and still a sound regression guard -- a genuine
    slowdown of the collection machinery inflates every pair, minimum
    included.  Per-side bests are kept for the report.
    """
    scheme, partitioned = KERNELS[0]
    rounds = max(rounds, 5)
    on_best = off_best = None
    on_result = off_result = None
    ratios = []
    prev = telemetry.enabled()
    try:
        for i in range(rounds):
            pair = {}
            for on in ((True, False) if i % 2 == 0 else (False, True)):
                telemetry.set_enabled(on)
                elapsed, result, _, _ = _run_once(
                    scheme, partitioned, instructions, False
                )
                pair[on] = elapsed
                if on:
                    on_result = result
                    if on_best is None or elapsed < on_best:
                        on_best = elapsed
                else:
                    off_result = result
                    if off_best is None or elapsed < off_best:
                        off_best = elapsed
            ratios.append(pair[True] / pair[False] - 1.0)
    finally:
        telemetry.set_enabled(prev)
    return {
        "scheme": scheme,
        "instructions": instructions,
        "rounds": rounds,
        "stats_on_s": round(on_best, 4),
        "stats_off_s": round(off_best, 4),
        "overhead": round(min(ratios), 4),
        "pair_overheads": [round(r, 4) for r in ratios],
        "identical": on_result == off_result,
    }


def run_bench(
    smoke: bool = False,
    tag: str | None = None,
    rounds: int | None = None,
    instructions: int | None = None,
    out_dir: str | Path = ".",
) -> dict:
    """Run the kernel set, print a table, write ``BENCH_<tag>.json``.

    ``smoke`` shrinks the run to a correctness check (fewer
    instructions, one round) for CI; timing ratios from a smoke run
    are not meaningful.
    """
    if instructions is None:
        instructions = SMOKE_INSTRUCTIONS if smoke else INSTRUCTIONS
    if rounds is None:
        rounds = 1 if smoke else ROUNDS
    if tag is None:
        tag = "smoke" if smoke else "local"

    # Warm the trace store (untimed): sweeps compile each mix's chunks
    # once, and every kernel below replays the same pinned traces.
    _run_once(*KERNELS[0], instructions, object_path=False)
    kernels = [
        bench_kernel(scheme, partitioned, instructions, rounds)
        for scheme, partitioned in KERNELS
    ]
    trace = bench_trace_pipeline(rounds)
    fastfwd = bench_fastfwd(instructions, rounds)
    stats_overhead = bench_stats_overhead(instructions, rounds)
    budget = SMOKE_STATS_OVERHEAD_BUDGET if smoke else STATS_OVERHEAD_BUDGET
    report = {
        "tag": tag,
        "smoke": smoke,
        "fused": fused_default(),
        "pinned": {
            "mix": f"{MIX_CLASS}{MIX_INDEX}",
            "system": "small (2MB L2, 4 cores)",
            "instructions": instructions,
            "seed": SEED,
            "epoch_cycles": BENCH_EPOCH_CYCLES,
        },
        "kernels": kernels,
        "trace": trace,
        "fastfwd": fastfwd,
        "stats_overhead": {**stats_overhead, "budget": budget},
    }

    print(f"repro bench ({'smoke, ' if smoke else ''}{instructions} instrs/core, "
          f"best of {rounds}, fused={'on' if report['fused'] else 'off'})")
    print(f"{'kernel':>16s} {'object':>10s} {'optimized':>10s} "
          f"{'speedup':>8s} {'peak KiB':>18s} {'identical':>10s}")
    for row in kernels:
        peaks = f"{row['object_peak_kib']:.0f}/{row['optimized_peak_kib']:.0f}"
        print(
            f"{row['scheme']:>16s} {row['object_s']:>9.3f}s "
            f"{row['optimized_s']:>9.3f}s {row[RATIO]:>7.2f}x "
            f"{peaks:>18s} {str(row['identical']):>10s}"
        )
    feed_part = trace["feed"]
    print(
        f"trace feed on {trace['mix']}: {feed_part['speedup']:.2f}x "
        f"(chunk {feed_part['chunk_s']:.3f}s / generator "
        f"{feed_part['generator_s']:.3f}s) over "
        f"{feed_part['pairs_per_core']} pairs/core"
    )
    store = trace["store"]
    print(
        f"trace store: {store['mem_hits']} mem hits, "
        f"{store['disk_hits']} disk hits, {store['compiles']} compiles, "
        f"{store['bytes_written']} bytes written"
    )
    if fastfwd["enabled"]:
        print(
            f"fast-forward on {fastfwd['scheme']}: "
            f"{fastfwd[RATIO]:.2f}x vs object path, "
            f"{fastfwd['speedup_vs_exact']:.2f}x vs exact "
            f"(fastfwd {fastfwd['fastfwd_s']:.3f}s / "
            f"exact {fastfwd['exact_s']:.3f}s), skipped "
            f"{fastfwd['skipped_fraction']:.1%} of accesses "
            f"({fastfwd['skips']} skips, {fastfwd['aborts']} aborts), "
            f"worst miss-rate delta {fastfwd['worst_miss_rate_delta']:.4f}, "
            f"alloc delta {fastfwd['final_alloc_delta']:.4f}"
        )
    else:
        print(
            f"fast-forward on {fastfwd['scheme']}: declined "
            f"({fastfwd['decline_reason']})"
        )
    print(
        f"stats overhead on {stats_overhead['scheme']}: "
        f"{stats_overhead['overhead']:+.2%} (min over "
        f"{len(stats_overhead['pair_overheads'])} paired runs; "
        f"on {stats_overhead['stats_on_s']:.3f}s / "
        f"off {stats_overhead['stats_off_s']:.3f}s, budget {budget:.0%})"
    )

    path = Path(out_dir) / f"BENCH_{tag}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path}")

    mismatched = [row["scheme"] for row in kernels if not row["identical"]]
    if mismatched:
        raise AssertionError(
            f"fast and object-path kernels diverge on: {', '.join(mismatched)}"
        )
    for row in kernels:
        if row["partitioned"] and not row["last_allocation"]:
            raise AssertionError(
                f"{row['scheme']} crossed no repartitioning epoch "
                f"(empty last_allocation): the bench no longer covers "
                f"the allocation path"
            )
    if not trace["feed"]["identical"]:
        raise AssertionError(
            "chunk replay diverges from generator output in the feed kernel"
        )
    if not stats_overhead["identical"]:
        raise AssertionError(
            "telemetry collection changed simulation results on "
            f"{stats_overhead['scheme']}"
        )
    if stats_overhead["overhead"] > budget:
        raise AssertionError(
            f"stats collection costs {stats_overhead['overhead']:.2%} on "
            f"{stats_overhead['scheme']}, above the {budget:.0%} budget"
        )
    # Fast-forward rides the batch kernels, which REPRO_FUSED=0 removes.
    if report["fused"] and not fastfwd["enabled"]:
        raise AssertionError(
            f"fast-forward declined the pinned kernel "
            f"({fastfwd['decline_reason']}): the bench no longer "
            f"covers the fast-forward layer"
        )
    if fastfwd["worst_miss_rate_delta"] > 0.01:
        raise AssertionError(
            f"fast-forward miss rates diverge "
            f"{fastfwd['worst_miss_rate_delta']:.4f} from the exact path "
            f"on {fastfwd['scheme']}, above the 1% accuracy contract"
        )
    if fastfwd["final_alloc_delta"] > 0.01:
        raise AssertionError(
            f"fast-forward final allocations diverge "
            f"{fastfwd['final_alloc_delta']:.4f} from the exact path "
            f"on {fastfwd['scheme']}, above the 1% accuracy contract"
        )
    if not smoke and fastfwd["enabled"] and fastfwd["skipped_fraction"] <= 0.0:
        raise AssertionError(
            f"fast-forward skipped no accesses on {fastfwd['scheme']} "
            f"({fastfwd['skips']} skips, {fastfwd['aborts']} aborts): "
            f"the bench is not measuring the layer it reports"
        )
    return report


# -- sweep throughput bench (repro bench --sweep) -----------------------
#
# The single-kernel sections above time one simulation in one process;
# the shared-memory trace fabric (REPRO_TRACE_SHM, repro.traces.shm)
# speeds up something they cannot see: many worker processes fanning
# out over the same traces.  Each lane of this bench runs the pinned
# mini-sweep in a *fresh subprocess* (so neither lane inherits warm
# chunk caches or segments from the other) while this process samples
# the lane's process tree.  Memory is reported as PSS
# (/proc/<pid>/smaps_rollup): shared segment pages count once,
# proportionally, across the processes mapping them, where plain RSS
# would bill every worker for the full shared mapping and hide
# exactly the saving being measured.


def _sweep_child_main() -> None:
    """One sweep lane; runs in a fresh subprocess.

    ``sys.argv[1]`` is the lane config (JSON); the result is written
    to ``cfg["out"]``.  The lane issues one ``run_jobs`` fan-out per
    scheme round -- each with its own worker pool, the way figure
    scripts and service clients arrive -- with the results cache off
    so every job really simulates, and digests every outcome so the
    parent can assert the two lanes were bitwise-identical.
    """
    import hashlib
    import sys

    cfg = json.loads(sys.argv[1])
    from repro import traces
    from repro.harness.parallel import SimJob, run_jobs

    config = small_system(epoch_cycles=BENCH_EPOCH_CYCLES)
    mix = make_mix(MIX_CLASS, MIX_INDEX)
    digest = hashlib.sha256()
    jobs_total = 0
    worker_shm_hits = 0
    start = time.perf_counter()
    for schemes in cfg["rounds"]:
        jobs = [
            SimJob(mix, scheme, config, cfg["instructions"], seed=seed)
            for scheme in schemes
            for seed in cfg["seeds"]
        ]
        outcomes = run_jobs(jobs, workers=cfg["workers"], use_cache=False)
        jobs_total += len(jobs)
        for job, outcome in zip(jobs, outcomes):
            digest.update(
                repr((job.scheme, job.seed, outcome.result)).encode()
            )
            counters = getattr(outcome, "trace_counters", None) or {}
            worker_shm_hits = max(worker_shm_hits, counters.get("shm_hits", 0))
    elapsed = time.perf_counter() - start
    counters = traces.get_store().counters()
    Path(cfg["out"]).write_text(
        json.dumps(
            {
                "jobs": jobs_total,
                "elapsed_s": round(elapsed, 4),
                "jobs_per_s": round(jobs_total / elapsed, 4),
                "digest": digest.hexdigest(),
                "worker_shm_hits": worker_shm_hits,
                "publisher_shm_publishes": counters["shm_publishes"],
                "publisher_compiles": counters["compiles"],
            }
        )
        + "\n"
    )


def _process_tree(root: int) -> list[int]:
    """``root`` and its descendant pids (via ``/proc/*/task/*/children``)."""
    pending = [root]
    seen: list[int] = []
    while pending:
        pid = pending.pop()
        seen.append(pid)
        task_dir = Path(f"/proc/{pid}/task")
        try:
            for task in task_dir.iterdir():
                children = (task / "children").read_text().split()
                pending.extend(int(child) for child in children)
        except (OSError, ValueError):
            continue
    return seen


def _pss_rss_kib(pid: int) -> tuple[int, int] | None:
    try:
        text = Path(f"/proc/{pid}/smaps_rollup").read_text()
    except OSError:
        return None
    pss = rss = 0
    for line in text.splitlines():
        if line.startswith("Pss:"):
            pss = int(line.split()[1])
        elif line.startswith("Rss:"):
            rss = int(line.split()[1])
    return pss, rss


def _is_resource_tracker(pid: int) -> bool:
    # multiprocessing's resource tracker is a helper, not a worker;
    # billing its interpreter footprint to the sweep would be noise.
    try:
        cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return False
    return b"resource_tracker" in cmdline


def _sample_lane_memory(root_pid: int, stop, peaks: dict) -> None:
    """Sampler thread: peak PSS/RSS over the lane's process tree.

    ``peak_tree_*`` is the per-sample *sum* over the tree at its
    maximum -- aggregate concurrent memory, the number the fabric is
    supposed to lower; ``peak_worker_*`` is the hungriest single
    worker process at any sample.
    """
    while not stop.wait(0.02):
        total_pss = total_rss = 0
        procs = 0
        for pid in _process_tree(root_pid):
            if _is_resource_tracker(pid):
                continue
            sizes = _pss_rss_kib(pid)
            if sizes is None:
                continue
            pss, rss = sizes
            total_pss += pss
            total_rss += rss
            if pid != root_pid:
                procs += 1
                peaks["peak_worker_pss_kib"] = max(
                    peaks.get("peak_worker_pss_kib", 0), pss
                )
                peaks["peak_worker_rss_kib"] = max(
                    peaks.get("peak_worker_rss_kib", 0), rss
                )
        if procs or total_pss:
            peaks["peak_tree_pss_kib"] = max(
                peaks.get("peak_tree_pss_kib", 0), total_pss
            )
            peaks["peak_tree_rss_kib"] = max(
                peaks.get("peak_tree_rss_kib", 0), total_rss
            )
            peaks["max_worker_procs"] = max(
                peaks.get("max_worker_procs", 0), procs
            )


def _shm_segment_names() -> set[str]:
    from repro.traces.shm import SEGMENT_PREFIX, shm_dir

    root = shm_dir()
    if root is None:
        return set()
    return {path.name for path in root.glob(SEGMENT_PREFIX + "*")}


def _run_sweep_lane(shm_on: bool, cfg: dict) -> dict:
    """Run one lane in a fresh subprocess and sample its memory."""
    import subprocess
    import sys
    import tempfile
    import threading

    fd, out_path = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root + os.pathsep + extra if extra else src_root
    )
    # Pin the lane environment: no disk caches (both lanes must pay
    # full compile cost or the comparison measures cache warmth), no
    # fast-forward, no inherited worker-count override.
    for knob in (
        "REPRO_TRACE_CACHE",
        "REPRO_RESULTS_CACHE",
        "REPRO_CACHE_DIR",
        "REPRO_FASTFWD",
        "REPRO_WORKERS",
    ):
        env.pop(knob, None)
    env["REPRO_TRACE_SHM"] = "1" if shm_on else "0"
    before = _shm_segment_names()
    proc = subprocess.Popen(
        [
            sys.executable,
            "-c",
            "from repro.harness.bench import _sweep_child_main; "
            "_sweep_child_main()",
            json.dumps({**cfg, "out": out_path}),
        ],
        env=env,
    )
    peaks: dict = {}
    stop = threading.Event()
    sampler = threading.Thread(
        target=_sample_lane_memory, args=(proc.pid, stop, peaks), daemon=True
    )
    sampler.start()
    returncode = proc.wait()
    stop.set()
    sampler.join()
    leftovers = sorted(_shm_segment_names() - before)
    if returncode != 0:
        raise AssertionError(
            f"sweep lane (shm {'on' if shm_on else 'off'}) exited "
            f"with {returncode}"
        )
    result = json.loads(Path(out_path).read_text())
    os.unlink(out_path)
    return {**result, **peaks, "leftover_segments": leftovers}


def bench_sweep(smoke: bool = False) -> dict:
    """Time the pinned mini-sweep with the shm fabric off, then on."""
    cfg = {
        "rounds": [list(r) for r in (SWEEP_SMOKE_ROUNDS if smoke else SWEEP_ROUNDS)],
        "seeds": list(SWEEP_SMOKE_SEEDS if smoke else SWEEP_SEEDS),
        "instructions": SWEEP_SMOKE_INSTRUCTIONS if smoke else SWEEP_INSTRUCTIONS,
        "workers": SWEEP_WORKERS,
    }
    off = _run_sweep_lane(False, cfg)
    on = _run_sweep_lane(True, cfg)
    off_pss = off.get("peak_tree_pss_kib", 0)
    on_pss = on.get("peak_tree_pss_kib", 0)
    return {
        "mix": f"{MIX_CLASS}{MIX_INDEX}",
        "workers": cfg["workers"],
        "rounds": cfg["rounds"],
        "seeds": cfg["seeds"],
        "instructions": cfg["instructions"],
        "jobs": on["jobs"],
        "identical": off["digest"] == on["digest"],
        "shm_speedup": round(on["jobs_per_s"] / off["jobs_per_s"], 3)
        if off["jobs_per_s"]
        else None,
        "pss_ratio": round(off_pss / on_pss, 3) if on_pss else None,
        "worker_shm_hits": on["worker_shm_hits"],
        "leftover_segments": sorted(
            set(on["leftover_segments"]) | set(off["leftover_segments"])
        ),
        "on": on,
        "off": off,
    }


def run_sweep_bench(
    smoke: bool = False,
    tag: str | None = None,
    out_dir: str | Path = ".",
) -> dict:
    """Run the sweep bench, print a summary, write ``BENCH_<tag>.json``.

    Correctness (bitwise-identical lanes, workers really attaching,
    no leaked segments) is asserted in both modes; the performance
    direction (higher jobs/sec and lower aggregate PSS with the
    fabric on) only on full runs -- smoke timings are noise.
    """
    if tag is None:
        tag = "sweep-smoke" if smoke else "sweep"
    sweep = bench_sweep(smoke=smoke)
    report = {
        "tag": tag,
        "smoke": smoke,
        "pinned": {
            "mix": sweep["mix"],
            "system": "small (2MB L2, 4 cores)",
            "instructions": sweep["instructions"],
            "workers": sweep["workers"],
            "epoch_cycles": BENCH_EPOCH_CYCLES,
        },
        "sweep": sweep,
    }

    on, off = sweep["on"], sweep["off"]
    print(
        f"repro bench --sweep ({'smoke, ' if smoke else ''}"
        f"{sweep['jobs']} jobs x {len(sweep['rounds'])} rounds, "
        f"{sweep['instructions']} instrs/core, {sweep['workers']} workers)"
    )
    print(
        f"{'lane':>8s} {'elapsed':>9s} {'jobs/s':>8s} "
        f"{'tree PSS MiB':>13s} {'worker PSS MiB':>15s}"
    )
    for label, lane in (("shm off", off), ("shm on", on)):
        print(
            f"{label:>8s} {lane['elapsed_s']:>8.2f}s "
            f"{lane['jobs_per_s']:>8.2f} "
            f"{lane.get('peak_tree_pss_kib', 0) / 1024:>13.1f} "
            f"{lane.get('peak_worker_pss_kib', 0) / 1024:>15.1f}"
        )
    speedup = sweep["shm_speedup"]
    pss_ratio = sweep["pss_ratio"]
    print(
        f"shm fabric: {speedup:.2f}x jobs/sec, "
        f"{pss_ratio:.2f}x aggregate PSS, "
        f"{on['publisher_shm_publishes']} segments published, "
        f"worker shm hits {sweep['worker_shm_hits']}, "
        f"identical={sweep['identical']}"
    )

    path = Path(out_dir) / f"BENCH_{tag}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path}")

    if not sweep["identical"]:
        raise AssertionError(
            "sweep results diverge between REPRO_TRACE_SHM on and off"
        )
    if sweep["leftover_segments"]:
        raise AssertionError(
            f"sweep lanes leaked shared-memory segments: "
            f"{', '.join(sweep['leftover_segments'])}"
        )
    if sweep["worker_shm_hits"] <= 0:
        raise AssertionError(
            "no worker attached a shared segment in the shm-on lane: "
            "the bench is not measuring the fabric it reports"
        )
    if on["publisher_shm_publishes"] <= 0:
        raise AssertionError(
            "the shm-on lane published no segments: the publish phase "
            "did not run"
        )
    if not smoke:
        if speedup is None or speedup <= 1.0:
            raise AssertionError(
                f"shm fabric shows no sweep speedup ({speedup}x): "
                f"on {on['elapsed_s']:.2f}s vs off {off['elapsed_s']:.2f}s"
            )
        if pss_ratio is None or pss_ratio <= 1.0:
            raise AssertionError(
                f"shm fabric shows no aggregate memory saving "
                f"(PSS ratio {pss_ratio})"
            )
    return report
