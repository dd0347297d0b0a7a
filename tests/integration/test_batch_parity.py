"""Cross-path parity for the batch access kernel layer.

Every scheme has one fast body, its batch kernel, and one oracle, its
object-path ``access`` method.  The batch kernels run whole segments
of compiled trace chunks inside one closure call, returning to the
event loop only at epoch/sample boundaries, chunk refills,
non-chunked cores and run completion.  They are strength reductions
over the object path (``REPRO_FUSED=0``: no batch kernel, every event
through ``cache.access``) -- so both lanes must produce
bitwise-identical results and stats trees:

* across every scheme family, on randomly drawn mixes and seeds, with
  mid-run ``set_allocations`` and PIPP stream reclassification (epoch
  repartitions land *between* batched segments: the kernel parks at
  the service boundary and the loop re-enters it),
* on full zcaches, where every miss walks to R candidates, demotes
  and relocates, for every Vantage variant,
* on the heap scheduler path (``num_cores > 8``), which has its own
  run continuation,
* with plain-callable cores mixed in, whose events the kernel hands
  back to the object path (reason 4),
* with measurement hooks installed, which the kernels decline: a
  hooked run takes the object path and must match an unhooked run on
  the default lane.

Combinations of scheme, mix and seed are drawn from seeded RNGs: the
point is cross-path identity on inputs nobody hand-picked, with the
golden-stats suite pinning the hand-picked ones.
"""

import random

import pytest

from repro import telemetry
from repro.harness.runner import build_cache, build_policy, run_mix
from repro.harness.schemes import scheme_partitioned
from repro.sim import CMPSystem
from repro.sim.configs import small_system
from repro.traces import TraceSpec
from repro.workloads import make_mix
from repro.workloads.mixes import mix_classes

INSTRUCTIONS = 6_000

#: Short epoch so partitioned schemes repartition mid-run, splitting
#: batched segments at service boundaries (reason-1 returns).
EPOCH_CYCLES = 20_000

#: L2 size for the hooked and mixed-feed runs: small enough to fill
#: (and so evict, firing the hooks) within ``INSTRUCTIONS``.
SMALL_L2_BYTES = 8 * 1024

#: Epoch for the hooked runs: short enough that every partitioned
#: combo crosses one (the shortest, waypart-sa16, runs ~12k cycles).
HOOKED_EPOCH_CYCLES = 10_000

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


def _config(scheme: str, **overrides):
    if scheme_partitioned(scheme):
        overrides.setdefault("epoch_cycles", EPOCH_CYCLES)
    return small_system(**overrides)


def _draw_combos(seed: int):
    rng = random.Random(seed)
    classes = mix_classes()
    return [
        (scheme, rng.choice(classes), rng.randrange(4), rng.randrange(1000))
        for scheme in SCHEMES
    ]


#: Two independent draws of one combo per scheme; the second also
#: drives the hooked runs.
COMBOS = _draw_combos(0xBA7C4)
HOOKED_COMBOS = _draw_combos(0x5EED5)

#: More (scheme, mix class, seed) sample points on the three scheme
#: families with distinct batch kernels, each on the mix at index 1.
SAMPLE_POINTS = [
    ("lru-sa16", "tttn", 304),
    ("lru-sa16", "tnnn", 284),
    ("lru-sa16", "fttn", 930),
    ("vantage-z4/52", "ssft", 768),
    ("vantage-z4/52", "fftn", 48),
    ("vantage-z4/52", "tnnn", 608),
    ("waypart-sa16", "nnnn", 581),
    ("waypart-sa16", "sftt", 367),
    ("waypart-sa16", "nnnn", 903),
]
SAMPLE_COMBOS = [(scheme, mix, 1, seed) for scheme, mix, seed in SAMPLE_POINTS]


def _assert_repartitioned(scheme, system, stats):
    """A partitioned run really crossed an epoch and allocated."""
    if scheme_partitioned(scheme):
        assert stats["sim"]["epochs"] > 0, f"{scheme}: crossed no epoch"
        assert system.policy.last_allocation, f"{scheme}: never allocated"


def _both_lanes(monkeypatch, mix, scheme, config, seed):
    """``(fast, object)`` runs of one mix: the default lane, then the
    object path under ``REPRO_FUSED=0``."""
    monkeypatch.delenv("REPRO_FUSED", raising=False)
    fast = run_mix(mix, scheme, config, INSTRUCTIONS, seed=seed)
    monkeypatch.setenv("REPRO_FUSED", "0")
    plain = run_mix(mix, scheme, config, INSTRUCTIONS, seed=seed)
    assert plain.system.batch_calls == 0
    return fast, plain


@pytest.mark.parametrize(
    "scheme,mix_class,mix_index,seed", COMBOS + HOOKED_COMBOS + SAMPLE_COMBOS
)
def test_batch_matches_single_access(monkeypatch, scheme, mix_class, mix_index, seed):
    """Whole-segment dispatch vs the object path's per-access loop,
    every scheme."""
    mix = make_mix(mix_class, mix_index)
    batched, plain = _both_lanes(monkeypatch, mix, scheme, _config(scheme), seed)
    assert batched.system.batch_calls > 0
    if batched.result.total_cycles > EPOCH_CYCLES:
        # The run outlasted an epoch, so it must have repartitioned.
        _assert_repartitioned(scheme, batched.system, batched.stats())

    assert batched.result == plain.result
    assert batched.stats() == plain.stats()


#: Vantage variants on zcaches, run on ``SMALL_L2_BYTES`` so the array
#: fills and every later miss takes the steady-state path: a full walk
#: to R candidates, the demotion scan and a relocating install.  The
#: DRRIP and analytical variants override ``_demotable``/``_demote``,
#: so their scans take the non-inlined branches.
FULL_ARRAY_SCHEMES = [
    "vantage-z4/52",
    "vantage-z4/16",
    "vantage-drrip-z4/52",
    "vantage-analytical-z4/52",
    "reuse-aware-z4/52",
]

#: Schemes with no batch kernel: both lanes run the object path, so
#: their cases here pin the full-array preconditions, not lane parity.
OBJECT_ONLY_SCHEMES = {"vantage-analytical-z4/52"}


@pytest.mark.parametrize("scheme", FULL_ARRAY_SCHEMES)
def test_full_array_parity(monkeypatch, scheme):
    """The steady-state miss path with demotions, on both lanes."""
    mix = make_mix("sftn", 1)
    config = _config(scheme, l2_bytes=SMALL_L2_BYTES)
    batched, plain = _both_lanes(monkeypatch, mix, scheme, config, 7)
    if scheme in OBJECT_ONLY_SCHEMES:
        assert batched.system.batch_calls == 0
    else:
        # Otherwise the "kernel lane" would compare the object path
        # with itself.
        assert batched.system.batch_calls > 0
    for run in (batched, plain):
        array = run.cache.array
        assert len(array._slot_of) == array.num_lines
        assert sum(run.cache.demotions) > 0

    assert batched.result == plain.result
    assert batched.stats() == plain.stats()


@pytest.mark.parametrize("scheme", ["waypart-sa16", "vantage-sa16"])
def test_set_allocations_mid_batch_segment(monkeypatch, scheme):
    """Epoch repartitions fire *during* a batched run: the kernel must
    park at the service boundary, let ``set_allocations`` mutate the
    partition registers it captured as closure cells, and resume
    bitwise-identically to the per-access loop."""
    mix = make_mix("nftt", 2)
    batched, plain = _both_lanes(monkeypatch, mix, scheme, _config(scheme), 11)
    # At least one service boundary split the run into multiple
    # kernel entries -- otherwise this test exercises nothing.
    assert batched.system.batch_calls >= 2

    assert batched.result == plain.result
    assert batched.stats() == plain.stats()


@pytest.mark.parametrize(
    "scheme", ["lru-sa16", "vantage-z4/52", "waypart-sa16", "pipp-sa16"]
)
def test_heap_scheduler_batch_parity(monkeypatch, scheme):
    """The heap scheduler (num_cores > 8) drives the same batch
    kernels through the ``(t, cid)`` heap instead of the two-minimum
    scan; both selection orders and the heap-path run continuation
    must agree with the per-access loop."""
    mix = make_mix("nfts", 1, apps_per_slot=3)  # 12 cores
    assert mix.num_cores == 12
    config = _config(scheme, num_cores=12)
    batched, plain = _both_lanes(monkeypatch, mix, scheme, config, 5)
    assert batched.system.batch_calls > 0

    assert batched.result == plain.result
    assert batched.stats() == plain.stats()


def _build_run(scheme, config, factories, seed, hooked=False):
    """A system for ``scheme`` over ``factories``; ``hooked`` installs
    recording eviction (and, for Vantage, demotion) hooks.  Returns the
    result, the stats snapshot, the hook log and the system."""
    cache = build_cache(scheme, config.l2_lines, config.num_cores, seed=seed)
    policy = (
        build_policy(cache, config, seed) if scheme_partitioned(scheme) else None
    )
    log = []
    if hooked:
        cache.eviction_hook = lambda slot, part: log.append(("evict", slot, part))
        if hasattr(cache, "demotion_hook"):
            cache.demotion_hook = lambda slot, part: log.append(
                ("demote", slot, part)
            )
    system = CMPSystem(cache, factories, config, policy=policy)
    tree = telemetry.system_tree(cache=cache, system=system, policy=policy)
    result = system.run(INSTRUCTIONS)
    return result, tree.snapshot(), log, system


@pytest.mark.parametrize("scheme,mix_class,mix_index,seed", HOOKED_COMBOS)
def test_hooked_run_matches_default_lane(
    monkeypatch, scheme, mix_class, mix_index, seed
):
    """The batch kernels decline hooked caches, so a hooked run takes
    the object path on the default lane -- including the demotion
    hook's switch off Vantage's inlined ``_demote``.  Observing must
    not change the simulation: the hooked run matches an unhooked run
    on the batch kernel."""
    monkeypatch.delenv("REPRO_FUSED", raising=False)
    mix = make_mix(mix_class, mix_index)
    config = _config(
        scheme, l2_bytes=SMALL_L2_BYTES, epoch_cycles=HOOKED_EPOCH_CYCLES
    )

    result, stats, log, system = _build_run(
        scheme, config, mix.trace_factories(seed), seed, hooked=True
    )
    assert system.batch_calls == 0
    assert any(event[0] == "evict" for event in log)
    if hasattr(system.cache, "demotion_hook"):
        assert any(event[0] == "demote" for event in log)
    _assert_repartitioned(scheme, system, stats)

    fast_result, fast_stats, _log, fast = _build_run(
        scheme, config, mix.trace_factories(seed), seed
    )
    assert fast.batch_calls > 0

    assert result == fast_result
    assert stats == fast_stats


def _mixed_feed_run(scheme: str, seed: int):
    """Cores 0 and 2 keep their :class:`TraceSpec` (chunk-fed); cores 1
    and 3 get the same streams as plain callables (generator-fed)."""
    mix = make_mix("sftn", 1)
    config = _config(scheme, l2_bytes=SMALL_L2_BYTES)
    specs = mix.trace_factories(seed)
    factories = [
        spec if cid % 2 == 0 else spec.generator for cid, spec in enumerate(specs)
    ]
    result, stats, _log, system = _build_run(scheme, config, factories, seed)
    return result, stats, system


@pytest.mark.parametrize(
    "scheme", ["vantage-z4/52", "lru-sa16", "waypart-sa16", "pipp-sa16"]
)
def test_plain_callable_cores_bounce_through_reason_4(monkeypatch, scheme):
    """Plain-callable cores have no chunks: the batch kernel hands each
    of their events back to the event loop (reason 4), which runs it
    through ``cache.access`` -- on a cache whose policy registers the
    way-partitioning and PIPP kernels hoist between entries.  The
    interleaving must match the object path bitwise."""
    monkeypatch.delenv("REPRO_FUSED", raising=False)
    result, stats, system = _mixed_feed_run(scheme, seed=21)
    assert all(isinstance(f, TraceSpec) for f in system.trace_factories[::2])
    assert system.trace_chunks[1] == system.trace_chunks[3] == 0
    # More kernel entries than epoch services (reason 1), refills
    # (reason 2) and the final return (reason 3) account for: the rest
    # are reason-4 bounces.
    assert system.batch_calls > system.epochs + sum(system.trace_chunks) + 1
    assert sum(system.cache.stats.evictions) > 0

    monkeypatch.setenv("REPRO_FUSED", "0")
    plain_result, plain_stats, plain = _mixed_feed_run(scheme, seed=21)
    assert plain.batch_calls == 0

    assert result == plain_result
    assert stats == plain_stats
