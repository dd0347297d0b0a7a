"""Fast-forward accuracy contract on a fig-6 mix sample.

The layer's promise: with fast-forward on, per-partition miss
rates and final Lookahead allocations stay within 1% of the exact
path while a nonzero fraction of accesses is skipped.  This suite
enforces exactly that on a sample of the fig-6 4-core mixes (the
pinned headline mix plus two more classes), at the bench's epoch
scale so every run crosses many repartitioning epochs.

Bitwise-identity guarantees (never-converges, detection-only, abort
paths) live in ``tests/sim/test_fastfwd.py``; this module is about
the *approximate* mode being honestly close.
"""

from __future__ import annotations

import pytest

from repro.harness import SimJob
from repro.harness.parallel import execute_job
from repro.harness.runner import run_mix
from repro.sim.configs import small_system
from repro.workloads import make_mix

INSTRUCTIONS = 120_000
EPOCH_CYCLES = 150_000
SEED = 0

#: Fig-6 sample: the pinned bench mix plus two other classes covering
#: different working-set mixes (saturating/thrashing/friendly blends).
MIX_SAMPLE = [("sftn", 1), ("ssff", 1), ("ttnn", 1)]

MISS_RATE_TOL = 0.01
ALLOC_TOL = 0.01


def _pair(mix_class: str, mix_index: int):
    config = small_system(epoch_cycles=EPOCH_CYCLES)
    mix = make_mix(mix_class, mix_index)
    exact = run_mix(
        mix,
        "vantage-z4/52",
        config,
        INSTRUCTIONS,
        seed=SEED,
        use_fastfwd=False,
    )
    fast = run_mix(
        mix,
        "vantage-z4/52",
        config,
        INSTRUCTIONS,
        seed=SEED,
        use_fastfwd=True,
    )
    return exact, fast


@pytest.mark.parametrize("mix_class,mix_index", MIX_SAMPLE)
def test_fastfwd_within_one_percent(mix_class, mix_index):
    exact, fast = _pair(mix_class, mix_index)
    ff = fast.system.fastfwd
    assert ff is not None and ff.enabled, ff and ff.decline_reason

    # The layer must have actually engaged: a zero skipped fraction
    # would make the accuracy assertions vacuous.
    assert ff.skips > 0, f"no skips on {mix_class}{mix_index} " f"({ff.aborts} aborts)"
    assert ff.skipped_fraction() > 0.0

    worst = max(
        abs(a - b)
        for a, b in zip(fast.result.l2_miss_rates, exact.result.l2_miss_rates)
    )
    assert worst <= MISS_RATE_TOL, (
        f"{mix_class}{mix_index}: worst per-core miss-rate delta {worst:.4f} "
        f"exceeds {MISS_RATE_TOL}"
    )

    total_units = exact.cache.allocation_total
    exact_alloc = exact.system.policy.last_allocation
    fast_alloc = fast.system.policy.last_allocation
    assert exact_alloc and fast_alloc
    alloc_delta = max(
        abs(a - b) for a, b in zip(fast_alloc, exact_alloc)
    ) / total_units
    assert alloc_delta <= ALLOC_TOL, (
        f"{mix_class}{mix_index}: final allocation delta "
        f"{alloc_delta:.4f} of capacity exceeds {ALLOC_TOL}"
    )


def test_fastfwd_env_knobs(monkeypatch):
    """``REPRO_FASTFWD=1`` in the environment (the knob CI and users
    set) becomes the default of jobs built under it, and
    ``REPRO_FASTFWD_TOL=0`` selects detection-only; the simulator
    itself never reads either knob."""
    config = small_system(epoch_cycles=EPOCH_CYCLES)
    mix = make_mix("sftn", 1)

    monkeypatch.setenv("REPRO_FASTFWD", "1")
    job = SimJob(mix, "vantage-z4/52", config, 30_000, seed=SEED)
    assert job.fastfwd is True
    ff = execute_job(job).stats["sim"]["fastfwd"]
    assert ff["active"] and not ff["detect_only"]
    assert ff["skips"] > 0

    monkeypatch.setenv("REPRO_FASTFWD_TOL", "0")
    job2 = SimJob(mix, "vantage-z4/52", config, 30_000, seed=SEED)
    assert job2.fastfwd_tol == 0.0
    ff2 = execute_job(job2).stats["sim"]["fastfwd"]
    assert ff2["active"] and ff2["detect_only"]
    assert ff2["skips"] == 0 and ff2["would_skip_accesses"] > 0

    # A run built without a job stays exact whatever the environment.
    run = run_mix(mix, "vantage-z4/52", config, 30_000, seed=SEED)
    assert run.system.fastfwd is None

    monkeypatch.setenv("REPRO_FASTFWD_TOL", "-1")
    with pytest.raises(ValueError, match="REPRO_FASTFWD_TOL"):
        SimJob(mix, "vantage-z4/52", config, 30_000, seed=SEED)
