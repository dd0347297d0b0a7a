"""Cross-path parity for the batch access kernel layer.

The batch kernels run whole segments of compiled trace chunks inside
one closure call, returning to the event loop only at epoch/sample
boundaries, chunk refills, non-chunked cores and run completion.  They
are strength reductions over the object path (``REPRO_FUSED=0``: no
fused kernels, hence no batch kernel, every event through
``cache.access``), the oracle -- so both lanes must produce
bitwise-identical results:

* across every scheme family, on randomly drawn mixes and seeds,
* with mid-run ``set_allocations`` (epoch repartitions land *between*
  batched segments: the kernel parks at the service boundary and the
  loop re-enters it),
* on the heap scheduler path (``num_cores > 8``), which has its own
  run continuation,
* with plain-callable cores mixed in, whose events the kernel hands
  back to the single-access fused path (reason 4).
"""

import random

import pytest

from repro import telemetry
from repro.harness.env import require_bitwise
from repro.harness.runner import build_cache, build_policy, run_mix
from repro.harness.schemes import scheme_partitioned
from repro.sim import CMPSystem
from repro.sim.configs import small_system
from repro.traces import TraceSpec
from repro.workloads import make_mix
from repro.workloads.mixes import mix_classes

@pytest.fixture(autouse=True)
def _bitwise_guard():
    """The batch-parity suite pins exact simulation; a stray
    ``REPRO_FASTFWD=1`` in the environment must fail loudly, not
    produce baffling diffs."""
    require_bitwise("the batch-parity suite")


INSTRUCTIONS = 6_000

#: Short epoch so partitioned schemes repartition mid-run, splitting
#: batched segments at service boundaries (reason-1 returns).
EPOCH_CYCLES = 20_000

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
    if scheme_partitioned(scheme) and not scheme.startswith("pipp"):
        return small_system(epoch_cycles=EPOCH_CYCLES, **overrides)
    return small_system(**overrides)


def _draw_combos():
    rng = random.Random(0xBA7C4)
    classes = mix_classes()
    return [
        (scheme, rng.choice(classes), rng.randrange(4), rng.randrange(1000))
        for scheme in SCHEMES
    ]


COMBOS = _draw_combos()


def _both_lanes(monkeypatch, mix, scheme, config, seed):
    """``(fast, object)`` runs of one mix: the default lane, then the
    object path under ``REPRO_FUSED=0``."""
    monkeypatch.delenv("REPRO_FUSED", raising=False)
    fast = run_mix(mix, scheme, config, INSTRUCTIONS, seed=seed)
    monkeypatch.setenv("REPRO_FUSED", "0")
    plain = run_mix(mix, scheme, config, INSTRUCTIONS, seed=seed)
    assert plain.system.batch_calls == 0
    return fast, plain


@pytest.mark.parametrize("scheme,mix_class,mix_index,seed", COMBOS)
def test_batch_matches_single_access(monkeypatch, scheme, mix_class, mix_index, seed):
    """Whole-segment dispatch vs the object path's per-access loop,
    every scheme."""
    mix = make_mix(mix_class, mix_index)
    batched, plain = _both_lanes(monkeypatch, mix, scheme, _config(scheme), seed)
    assert batched.system.batch_calls > 0

    assert batched.result == plain.result
    assert batched.stats() == plain.stats()


#: More (scheme, mix class, seed) sample points on the three scheme
#: families with distinct batch kernels, each compared against the
#: object path.
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

#: The lane switch that selects the object path.
OBJECT_PATH = (("REPRO_FUSED", "0"),)


@pytest.mark.parametrize(
    "scheme,mix_class,seed,flags", [(*point, OBJECT_PATH) for point in SAMPLE_POINTS]
)
def test_random_flag_combinations(monkeypatch, scheme, mix_class, seed, flags):
    """``REPRO_FUSED`` is the only lane switch: setting it (``flags``)
    selects the same simulation as the default fast path."""
    mix = make_mix(mix_class, 1)
    config = _config(scheme)

    monkeypatch.delenv("REPRO_FUSED", raising=False)
    baseline = run_mix(mix, scheme, config, INSTRUCTIONS, seed=seed)

    for name, value in flags:
        monkeypatch.setenv(name, value)
    variant = run_mix(mix, scheme, config, INSTRUCTIONS, seed=seed)

    assert variant.result == baseline.result
    assert variant.stats() == baseline.stats()


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


@pytest.mark.parametrize("scheme", ["lru-sa16", "vantage-z4/52"])
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


def _mixed_feed_run(scheme: str, seed: int):
    """Cores 0 and 2 keep their :class:`TraceSpec` (chunk-fed); cores 1
    and 3 get the same streams as plain callables (generator-fed)."""
    mix = make_mix("sftn", 1)
    config = _config(scheme)
    cache = build_cache(scheme, config.l2_lines, config.num_cores, seed=seed)
    policy = (
        build_policy(cache, config, seed) if scheme_partitioned(scheme) else None
    )
    specs = mix.trace_factories(seed)
    factories = [
        spec if cid % 2 == 0 else spec.generator for cid, spec in enumerate(specs)
    ]
    system = CMPSystem(cache, factories, config, policy=policy)
    tree = telemetry.system_tree(cache=cache, system=system, policy=policy)
    result = system.run(INSTRUCTIONS)
    return result, tree.snapshot(), system


@pytest.mark.parametrize("scheme", ["vantage-z4/52", "lru-sa16"])
def test_plain_callable_cores_bounce_through_reason_4(monkeypatch, scheme):
    """Plain-callable cores have no chunks: the batch kernel hands each
    of their events back to the event loop (reason 4), which runs it
    on the single-access fused closure.  The interleaving must match
    the object path bitwise."""
    monkeypatch.delenv("REPRO_FUSED", raising=False)
    result, stats, system = _mixed_feed_run(scheme, seed=21)
    assert all(isinstance(f, TraceSpec) for f in system.trace_factories[::2])
    assert system.trace_chunks[1] == system.trace_chunks[3] == 0
    # More kernel entries than epoch services (reason 1), refills
    # (reason 2) and the final return (reason 3) account for: the rest
    # are reason-4 bounces.
    assert system.batch_calls > system.epochs + sum(system.trace_chunks) + 1

    monkeypatch.setenv("REPRO_FUSED", "0")
    plain_result, plain_stats, plain = _mixed_feed_run(scheme, seed=21)
    assert plain.batch_calls == 0

    assert result == plain_result
    assert stats == plain_stats
