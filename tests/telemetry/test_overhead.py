"""Telemetry is bitwise-invisible and cheap on a steady-state kernel.

The kernel is Vantage-Z4/52 on ``sftn1`` with a 128 KiB L2, so that
60k instructions per core take the cache past cold fill into the
regime Vantage exists for: lines are demoted to the unmanaged region
and managed lines are evicted.  A 150k-cycle epoch puts several
repartitions inside the run.
"""

import time

from repro import telemetry
from repro.harness.runner import run_mix
from repro.sim import small_system
from repro.workloads import make_mix

SCHEME = "vantage-z4/52"
INSTRUCTIONS = 60_000

#: Maximum fractional slowdown stats collection may cost.
STATS_OVERHEAD_BUDGET = 0.05

#: Adjacent on/off pairs timed for the budget check.
PAIRS = 5


def _run(on: bool):
    """One run with collection on or off; ``(elapsed, MixRun)``."""
    prev = telemetry.enabled()
    telemetry.set_enabled(on)
    try:
        config = small_system(l2_bytes=128 * 1024, epoch_cycles=150_000)
        start = time.perf_counter()
        run = run_mix(make_mix("sftn", 1), SCHEME, config, INSTRUCTIONS, seed=0)
        return time.perf_counter() - start, run
    finally:
        telemetry.set_enabled(prev)


def test_telemetry_off_leaves_the_simulation_unchanged():
    _, on = _run(True)
    _, off = _run(False)
    cache = on.cache
    assert sum(cache.demotions) > 0, "the kernel never demoted a line"
    assert cache.evictions_managed > 0, "the kernel never evicted a managed line"
    assert on.system.policy.last_allocation, "the kernel never repartitioned"

    assert on.result == off.result
    assert on.system.policy.last_allocation == off.system.policy.last_allocation


def test_stats_overhead_within_budget():
    """Host load only ever inflates a run, so per-side best times do
    not estimate a few-percent overhead well.  Each round times an
    adjacent on/off pair, alternating which side goes first so drift
    biases both equally, and the budget applies to the minimum ratio:
    a lower bound on the true overhead under one-sided noise, which a
    real slowdown of the collection machinery still raises."""
    ratios = []
    for i in range(PAIRS):
        order = (True, False) if i % 2 == 0 else (False, True)
        elapsed = {on: _run(on)[0] for on in order}
        ratios.append(elapsed[True] / elapsed[False] - 1.0)
    assert min(ratios) <= STATS_OVERHEAD_BUDGET, (
        f"stats collection costs {min(ratios):.1%} (pairs: "
        f"{', '.join(f'{r:+.1%}' for r in ratios)}), budget "
        f"{STATS_OVERHEAD_BUDGET:.0%}"
    )
