"""Randomized cross-path parity for the fused access kernels.

Every cache scheme runs through up to three access paths:

* the batch kernel (``REPRO_FUSED`` unset, the default),
* the single-access fused closure, which serves runs the batch kernel
  declines -- measurement-hooked runs (Fig 1, the Fig 8 heat map),
  direct ``cache.access`` callers and plain-callable cores -- and
* the object path (``REPRO_FUSED=0``: ``Candidate`` lists and
  ``select_victim``), the reference both fast paths are pinned to.

The fused kernels are strength reductions, not behaviour changes, so
all paths must produce bitwise-identical :class:`SystemResult`s and
identical stats trees.  Combinations of scheme, mix and seed are drawn
from a seeded RNG: the point is cross-path identity on inputs nobody
hand-picked, with the golden-stats suite pinning the hand-picked ones.
"""

import random

import pytest

from repro import telemetry
from repro.harness.runner import build_policy, run_mix
from repro.harness.schemes import build_cache, scheme_partitioned
from repro.sim import CMPSystem
from repro.sim.configs import small_system
from repro.workloads import make_mix
from repro.workloads.mixes import mix_classes


INSTRUCTIONS = 6_000

#: Short repartitioning epoch so partitioned combos cross at least one
#: epoch boundary, exercising ``set_allocations`` under the fused
#: kernels (asserted by :func:`_assert_repartitioned`; the shortest
#: combo, waypart-sa16, runs about 12k cycles).  PIPP is excluded from
#: the short epoch: its 64 allocation ways exceed the small system's
#: 16-way UMONs, a pre-existing harness limitation that trips only
#: when a repartition actually fires (its ``set_allocations`` is
#: covered by the direct test below instead).
EPOCH_CYCLES = 10_000

SCHEMES = [
    "vantage-z4/52",
    "vantage-sa16",
    "drrip-z4/16",
    "lru-sa16",
    "lru-z4/52",
    "srrip-z4/52",
    "waypart-sa16",
    "pipp-sa64",
]


def _draw_combos():
    rng = random.Random(0x5EED5)
    classes = mix_classes()
    return [
        (scheme, rng.choice(classes), rng.randrange(4), rng.randrange(1000))
        for scheme in SCHEMES
    ]


COMBOS = _draw_combos()


def _short_epoch(scheme: str) -> bool:
    return scheme_partitioned(scheme) and not scheme.startswith("pipp")


def _config(scheme: str, **overrides):
    if _short_epoch(scheme):
        return small_system(epoch_cycles=EPOCH_CYCLES, **overrides)
    return small_system(**overrides)


def _assert_repartitioned(scheme, system, stats):
    """A short-epoch combo really crossed an epoch and allocated."""
    if _short_epoch(scheme):
        assert stats["sim"]["epochs"] > 0, f"{scheme}: crossed no epoch"
        assert system.policy.last_allocation, f"{scheme}: never allocated"


#: L2 size for the hooked runs: small enough to fill (and so evict,
#: firing the hooks) within ``INSTRUCTIONS``.
HOOKED_L2_BYTES = 8 * 1024


@pytest.mark.parametrize("scheme,mix_class,mix_index,seed", COMBOS)
def test_fused_matches_object_path(monkeypatch, scheme, mix_class, mix_index, seed):
    mix = make_mix(mix_class, mix_index)
    config = _config(scheme)

    monkeypatch.delenv("REPRO_FUSED", raising=False)
    fused = run_mix(mix, scheme, config, INSTRUCTIONS, seed=seed)
    assert fused.cache.fused, f"{scheme}: no fused kernel installed"

    monkeypatch.setenv("REPRO_FUSED", "0")
    plain = run_mix(mix, scheme, config, INSTRUCTIONS, seed=seed)
    assert not plain.cache.fused

    assert fused.result == plain.result
    assert fused.stats() == plain.stats()
    _assert_repartitioned(scheme, fused.system, fused.stats())


def _hooked_run(scheme, mix, config, seed):
    """One run with recording eviction (and, for Vantage, demotion)
    hooks installed: the batch kernel declines hooked caches, so every
    event takes the single-access path.  Returns the result, the stats
    snapshot, the hook log and the system."""
    cache = build_cache(scheme, config.l2_lines, config.num_cores, seed=seed)
    policy = build_policy(cache, config, seed) if scheme_partitioned(scheme) else None
    log = []
    cache.eviction_hook = lambda slot, part: log.append(("evict", slot, part))
    if hasattr(cache, "demotion_hook"):
        cache.demotion_hook = lambda slot, part: log.append(("demote", slot, part))
    system = CMPSystem(cache, mix.trace_factories(seed), config, policy=policy)
    tree = telemetry.system_tree(cache=cache, system=system, policy=policy)
    result = system.run(INSTRUCTIONS)
    return result, tree.snapshot(), log, system


@pytest.mark.parametrize("scheme,mix_class,mix_index,seed", COMBOS)
def test_fused_matches_reference(monkeypatch, scheme, mix_class, mix_index, seed):
    """Hooked runs: the single-access fused closures against the
    reference object path, down to the order of hooked evictions."""
    mix = make_mix(mix_class, mix_index)
    config = _config(scheme, l2_bytes=HOOKED_L2_BYTES)

    monkeypatch.delenv("REPRO_FUSED", raising=False)
    *fused, system = _hooked_run(scheme, mix, config, seed)
    assert system.cache.fused and system.batch_calls == 0
    _result, stats, log = fused
    assert any(event[0] == "evict" for event in log)
    _assert_repartitioned(scheme, system, stats)

    monkeypatch.setenv("REPRO_FUSED", "0")
    *reference, system = _hooked_run(scheme, mix, config, seed)
    assert not system.cache.fused

    assert fused == reference


def _valid_units(cache):
    """A deliberately skewed but valid allocation for the cache."""
    total = cache.allocation_total
    parts = len(cache.stats.accesses)
    units = [total // (2 * parts)] * parts
    units[0] += total - sum(units)
    return units


def _drive(cache, seed: int, accesses: int = 6_000):
    """Random accesses with a mid-stream repartition (and, for PIPP, a
    streaming reclassification), returning the full observable state."""
    rng = random.Random(seed)
    hits = 0
    for i in range(accesses):
        addr = rng.randrange(2_500)
        part = rng.randrange(4)
        hits += cache.access(addr, part)
        if i == accesses // 3:
            cache.set_allocations(_valid_units(cache))
            if hasattr(cache, "reclassify_streams"):
                cache.reclassify_streams()
    return {
        "hits": hits,
        "tags": list(cache.array._tags),
        "slot_of": dict(cache.array._slot_of),
        "part_of": list(cache.part_of),
        "accesses": list(cache.stats.accesses),
        "cache_hits": list(cache.stats.hits),
        "misses": list(cache.stats.misses),
        "evictions": list(cache.stats.evictions),
    }


@pytest.mark.parametrize("scheme", ["pipp-sa64", "waypart-sa16"])
@pytest.mark.parametrize("seed", [3, 41])
def test_set_allocations_under_fused_kernel(monkeypatch, scheme, seed):
    """Mid-stream ``set_allocations`` (and PIPP stream reclassification)
    must behave identically whether or not the fused kernel is active:
    the kernels capture the per-partition registers as closure cells,
    so reallocation must mutate them in place."""
    monkeypatch.delenv("REPRO_FUSED", raising=False)
    cache = build_cache(scheme, 1024, 4, seed=seed)
    assert cache.fused
    fused_state = _drive(cache, seed)

    monkeypatch.setenv("REPRO_FUSED", "0")
    cache = build_cache(scheme, 1024, 4, seed=seed)
    assert not cache.fused
    assert _drive(cache, seed) == fused_state
