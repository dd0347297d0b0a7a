"""Fast-forward layer unit and edge-case tests.

The accuracy contract (miss rates / allocations within 1% of the
exact path on the fig-6 sample) lives in
``tests/integration/test_fastfwd_accuracy.py``; this module covers the
:class:`~repro.sim.fastfwd.ConvergenceDetector` protocol, the
never-converges / abort edge cases (whose output must be *bitwise*
identical to ``REPRO_FASTFWD=0``), the cache state snapshot/restore
round-trip, and the honest-decline eligibility paths.
"""

from __future__ import annotations

import pytest

import repro.sim.fastfwd as fastfwd_mod
from repro.allocation.umon import UMonitor
from repro.harness.schemes import build_cache
from repro.harness.runner import run_mix
from repro.sim.configs import small_system
from repro.sim.fastfwd import ConvergenceDetector
from repro.workloads import SharedRegionSpec, make_mix, make_shared_mix

#: Pinned configuration for the identity runs: long enough to cross
#: several repartitioning epochs (the detector fires every epoch on
#: this mix at this scale -- asserted below), short enough for CI.
MIX = ("sftn", 1)
INSTRUCTIONS = 60_000
EPOCH_CYCLES = 150_000
SEED = 0

TARGETS = (100, 100, 100, 100)


def _window(miss=0.5, dem=0.1, aperture=0.2, n=10_000, parts=4):
    accesses = [n] * parts
    misses = [int(miss * n)] * parts
    demotions = [int(dem * n)] * parts
    apertures = [aperture] * parts
    return accesses, misses, demotions, apertures


class TestConvergenceDetector:
    def test_fires_after_k_stable_windows(self):
        det = ConvergenceDetector(4, tol=0.02, k=2)
        acc, miss, dem, ap = _window()
        assert det.observe(acc, miss, dem, ap, TARGETS) is False  # baseline
        assert det.observe(acc, miss, dem, ap, TARGETS) is False  # streak 1
        assert det.observe(acc, miss, dem, ap, TARGETS) is True  # streak 2
        assert det.streak == 2

    def test_rate_drift_breaks_streak(self):
        det = ConvergenceDetector(4, tol=0.02, k=2)
        acc, miss, dem, ap = _window(miss=0.5)
        det.observe(acc, miss, dem, ap, TARGETS)
        det.observe(acc, miss, dem, ap, TARGETS)
        # A 20-point miss-rate jump is far outside tol + noise at
        # 10k-access windows.
        acc2, miss2, dem2, ap2 = _window(miss=0.7)
        assert det.observe(acc2, miss2, dem2, ap2, TARGETS) is False
        assert det.streak == 0

    def test_aperture_drift_breaks_streak(self):
        det = ConvergenceDetector(4, tol=0.02, k=2)
        acc, miss, dem, ap = _window(aperture=0.2)
        det.observe(acc, miss, dem, ap, TARGETS)
        acc2, miss2, dem2, ap2 = _window(aperture=0.3)
        assert det.observe(acc2, miss2, dem2, ap2, TARGETS) is False

    def test_noise_allowance_scales_with_window_size(self):
        # At 50-access windows a few misses of jitter is binomial
        # noise, not drift: 0.40 vs 0.52 is within 2.5 pooled sigmas.
        det = ConvergenceDetector(1, tol=0.02, k=2)
        det.observe([50], [20], [5], [0.2], (100,))
        det.observe([50], [26], [5], [0.2], (100,))
        assert det.streak == 1
        # The same absolute gap at 10k-access windows is real drift.
        det2 = ConvergenceDetector(1, tol=0.02, k=2)
        det2.observe([10_000], [4_000], [1_000], [0.2], (100,))
        det2.observe([10_000], [5_200], [1_000], [0.2], (100,))
        assert det2.streak == 0

    def test_quiet_windows_compare_stable(self):
        det = ConvergenceDetector(1, tol=0.02, k=2, min_accesses=16)
        det.observe([3], [1], [0], [0.0], (100,))
        det.observe([2], [2], [0], [0.0], (100,))
        det.observe([1], [0], [0], [0.0], (100,))
        assert det.streak == 2

    def test_quiet_to_active_flip_breaks_streak(self):
        det = ConvergenceDetector(1, tol=0.02, k=2, min_accesses=16)
        det.observe([3], [1], [0], [0.0], (100,))
        det.observe([2], [1], [0], [0.0], (100,))
        assert det.streak == 1
        assert det.observe([500], [100], [10], [0.1], (100,)) is False
        assert det.streak == 0

    def test_target_change_resets_baseline(self):
        # Mid-epoch ``set_allocations`` moves every aperture: the
        # detector must drop its evidence and start over.
        det = ConvergenceDetector(4, tol=0.02, k=2)
        acc, miss, dem, ap = _window()
        det.observe(acc, miss, dem, ap, TARGETS)
        det.observe(acc, miss, dem, ap, TARGETS)
        assert det.streak == 1
        new_targets = (200, 50, 100, 50)
        assert det.observe(acc, miss, dem, ap, new_targets) is False
        assert det.streak == 0  # stable vs nothing: baseline window
        assert det.observe(acc, miss, dem, ap, new_targets) is False
        assert det.observe(acc, miss, dem, ap, new_targets) is True

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ConvergenceDetector(4, tol=0.0)
        with pytest.raises(ValueError):
            ConvergenceDetector(4, k=0)


def _run(
    use_fastfwd,
    fastfwd_tol=fastfwd_mod.DEFAULT_TOL,
    monkeypatch=None,
    instructions=INSTRUCTIONS,
):
    config = small_system(epoch_cycles=EPOCH_CYCLES)
    mix = make_mix(*MIX)
    return run_mix(
        mix,
        "vantage-z4/52",
        config,
        instructions,
        seed=SEED,
        use_fastfwd=use_fastfwd,
        fastfwd_tol=fastfwd_tol,
    )


def _identity_keys(run):
    """Everything a bitwise-identity assertion should compare: the
    run result, the full cache register/line state, and the final
    allocation."""
    return (
        run.result,
        run.cache.fastfwd_state(),
        list(run.cache.target),
        list(run.system.policy.last_allocation),
    )


def test_detection_only_is_bitwise_identical():
    """``REPRO_FASTFWD_TOL=0``: the detector and planner run (and log
    triggers) but every access is simulated exactly."""
    exact = _run(use_fastfwd=False)
    detect = _run(use_fastfwd=True, fastfwd_tol=0.0)
    ff = detect.system.fastfwd
    assert ff is not None and ff.enabled and ff.detect_only
    assert ff.triggers > 0, "detection-only mode never triggered"
    assert ff.skips == 0 and ff.skipped_accesses == 0
    assert ff.would_skip_accesses > 0
    assert 0.0 < ff.would_skip_fraction() < 1.0
    assert all(ev["action"] in ("detect", "abort") for ev in ff.events)
    assert _identity_keys(detect) == _identity_keys(exact)


def test_never_converging_run_is_bitwise_identical(monkeypatch):
    """A mix the detector never declares converged must ride the extra
    window stops without perturbing the simulation at all."""
    monkeypatch.setattr(
        ConvergenceDetector, "observe", lambda self, *args: False
    )
    exact = _run(use_fastfwd=False)
    never = _run(use_fastfwd=True)
    ff = never.system.fastfwd
    assert ff is not None and ff.enabled
    assert ff.windows > 0, "window stream never ran"
    assert ff.triggers == 0 and ff.skips == 0
    assert _identity_keys(never) == _identity_keys(exact)


def test_plan_rejection_aborts_to_exact_state(monkeypatch):
    """Every trigger whose plan fails validation (forced here via an
    impossible share-drift bound) must abort with *no* state mutated:
    the run stays bitwise-identical to the exact path."""
    monkeypatch.setattr(fastfwd_mod, "SHARE_DRIFT", -1.0)
    exact = _run(use_fastfwd=False)
    aborted = _run(use_fastfwd=True)
    ff = aborted.system.fastfwd
    assert ff is not None and ff.enabled
    assert ff.triggers > 0, "nothing triggered; the abort path never ran"
    assert ff.aborts == ff.triggers and ff.skips == 0
    assert all(ev["action"] == "abort" for ev in ff.events)
    assert all(ev["reason"] for ev in ff.events)
    assert _identity_keys(aborted) == _identity_keys(exact)


def test_fastfwd_state_roundtrip():
    """``fastfwd_state`` / ``fastfwd_restore``: mutate a live Vantage
    cache past a snapshot, restore, and the exported state is exactly
    the snapshot again (independent copies, no aliasing)."""
    cache = build_cache("vantage-z4/52", 2048, 4, seed=SEED)
    for addr in range(0, 3000, 3):
        cache.access(addr, addr % 4)
    before = cache.fastfwd_state()
    for addr in range(50_000, 53_000, 3):
        cache.access(addr, addr % 4)
    assert cache.fastfwd_state() != before
    cache.fastfwd_restore(before)
    after = cache.fastfwd_state()
    assert after == before
    # Independent copies: mutating the snapshot must not touch the
    # cache.
    before["accesses"][0] += 1
    assert cache.fastfwd_state() == after


def test_umon_model_advance():
    mon = UMonitor(num_ways=4, model_sets=64, sampled_sets=8, seed=0)
    base_acc = mon.accesses
    base_hits = list(mon.hits)
    mon.model_advance(120, [5, 3])
    assert mon.accesses == base_acc + 120
    assert mon.hits[0] == base_hits[0] + 5
    assert mon.hits[1] == base_hits[1] + 3
    mon.model_advance(0, ())
    assert mon.accesses == base_acc + 120
    with pytest.raises(ValueError):
        mon.model_advance(-1, ())


def test_umon_prime_sample_cache_matches_access():
    """Bulk priming is pure cache warming: identical classification
    entries to access-driven first touches, no counter or stack
    movement, and the same result through the small-batch scalar
    path."""
    kwargs = dict(num_ways=4, model_sets=256, sampled_sets=64, seed=3)
    addrs = [(1 << 33) + 977 * k for k in range(300)] + list(range(50))
    primed = UMonitor(**kwargs)
    primed.prime_sample_cache(addrs)
    walked = UMonitor(**kwargs)
    for addr in addrs:
        walked.access(addr)
    assert primed._sample_cache == walked._sample_cache
    assert primed.accesses == 0
    assert primed.hits == [0, 0, 0, 0]
    assert not primed._stacks
    # Small batches take the scalar path; entries still match.
    scalar = UMonitor(**kwargs)
    scalar.prime_sample_cache(addrs[:8])
    for addr in addrs[:8]:
        assert scalar._sample_cache[addr] == walked._sample_cache[addr]
    # Re-priming decided addresses is a no-op.
    primed.prime_sample_cache(addrs)
    assert primed._sample_cache == walked._sample_cache


def test_declines_shared_hit_policy():
    config = small_system(epoch_cycles=EPOCH_CYCLES)
    spec = SharedRegionSpec(kind="shared-table", lines=512, fraction=0.3)
    mix = make_shared_mix(*MIX, spec)
    run = run_mix(
        mix,
        "reuse-aware-z4/52",
        config,
        8_000,
        seed=SEED,
        use_fastfwd=True,
    )
    ff = run.system.fastfwd
    assert ff is not None and not ff.enabled
    assert ff.decline_reason
    assert ff.skips == 0


def test_declines_unpartitioned_baseline():
    config = small_system(epoch_cycles=EPOCH_CYCLES)
    run = run_mix(
        make_mix(*MIX),
        "lru-sa16",
        config,
        8_000,
        seed=SEED,
        use_fastfwd=True,
    )
    ff = run.system.fastfwd
    assert ff is not None and not ff.enabled
    assert "model" in ff.decline_reason
