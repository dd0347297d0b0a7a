"""Cross-path parity on shared-address mixes.

Shared-region workloads are the one place where an access's requesting
core and the line's owning partition diverge, which activates code that
is dormant on every multiprogrammed mix: the per-line ``touched_by``
bitmask, the on-shared-hit policies (keep-owner / migrate-to-requester
/ promote-to-shared), Vantage's unmanaged parking for promoted lines,
and the reuse-aware UCP stack.  All of it is replicated across the
object path (``REPRO_FUSED=0``, the reference) and the fast path (the
batch kernels), so the parity guarantee that covers private mixes must
hold here:

* the ``reuse-aware`` scheme on both lanes, for every sharing shape,
* every shared-hit policy on every scheme family, object vs fast.
"""

import pytest

from repro import telemetry
from repro.arrays import SetAssociativeArray, ZCacheArray
from repro.core import VantageCache
from repro.harness.runner import run_mix
from repro.harness.schemes import default_vantage_config
from repro.partitioning import BaselineCache, PIPPCache, WayPartitionedCache
from repro.replacement import make_policy
from repro.sim import CMPSystem
from repro.sim.configs import small_system
from repro.workloads import SharedRegionSpec, make_shared_mix

INSTRUCTIONS = 6_000

#: Short epoch so the reuse-aware policy actually repartitions mid-run
#: (splitting batched segments at service boundaries).
EPOCH_CYCLES = 20_000

KINDS = ("producer-consumer", "shared-table", "migratory")

def _clear_flags(monkeypatch):
    monkeypatch.delenv("REPRO_FUSED", raising=False)


def _shared_spec(kind, fraction=0.3):
    # A short ownership window: the default 2000 per-core accesses
    # exceeds what a 6000-instruction run issues, so migratory lines
    # would never change hands.
    return SharedRegionSpec(kind=kind, lines=512, fraction=fraction, window=100)


# -- reuse-aware scheme through the full harness ------------------------


#: (sharing shape, seed) sample points, each compared across lanes.
SAMPLE_POINTS = [
    ("producer-consumer", 302),
    ("producer-consumer", 70),
    ("producer-consumer", 522),
    ("shared-table", 391),
    ("shared-table", 254),
    ("shared-table", 954),
    ("migratory", 342),
    ("migratory", 60),
    ("migratory", 123),
]


@pytest.mark.parametrize("kind,seed", SAMPLE_POINTS)
def test_reuse_aware_lanes_agree(monkeypatch, kind, seed):
    """The object path (``REPRO_FUSED=0``) is the same simulation as
    the fast path on shared mixes."""
    mix = make_shared_mix("sftn", 1, _shared_spec(kind))
    config = small_system(epoch_cycles=EPOCH_CYCLES)

    _clear_flags(monkeypatch)
    baseline = run_mix(mix, "reuse-aware-z4/52", config, INSTRUCTIONS, seed=seed)
    # The mix must genuinely exercise the shared-hit machinery,
    # otherwise this parametrization proves nothing.
    assert sum(baseline.cache.shared_hits) > 0

    monkeypatch.setenv("REPRO_FUSED", "0")
    variant = run_mix(mix, "reuse-aware-z4/52", config, INSTRUCTIONS, seed=seed)

    assert variant.result == baseline.result
    assert variant.stats() == baseline.stats()


def test_reuse_aware_classification_is_live(monkeypatch):
    """The reuse-aware policy must classify sampled shared reuse (not
    silently degenerate to plain UCP) and migrate ownership."""
    mix = make_shared_mix("sftn", 1, _shared_spec("shared-table", fraction=0.35))
    config = small_system(epoch_cycles=EPOCH_CYCLES)

    _clear_flags(monkeypatch)
    out = run_mix(mix, "reuse-aware-z4/52", config, INSTRUCTIONS, seed=0)
    policy = out.system.policy
    assert sum(policy.shared_observed) > 0
    assert sum(m.shared_accesses for m in policy.monitors) > 0
    assert sum(out.cache.shared_moves) > 0
    sharing = out.stats()["cache"]["sharing"]
    assert sharing["multi_touched_lines"] > 0


def test_existing_schemes_ignore_shared_mixes(monkeypatch):
    """A non-sharing scheme on a shared mix keeps the machinery off:
    no sharing stats group, no shared counters, batch kernels engaged."""
    mix = make_shared_mix("sftn", 1, _shared_spec("producer-consumer"))
    config = small_system()

    _clear_flags(monkeypatch)
    out = run_mix(mix, "vantage-z4/52", config, INSTRUCTIONS, seed=3)
    assert out.cache._shared_code == 0
    assert sum(out.cache.shared_hits) == 0
    assert "sharing" not in out.stats()["cache"]
    assert out.system.batch_calls > 0


# -- every shared-hit policy on every scheme family ---------------------

FAMILIES = ("vantage", "waypart", "pipp", "lru")
POLICIES = ("keep-owner", "migrate-to-requester", "promote-to-shared")


def _build_shared_cache(family, policy_name, lines, cores, seed):
    if family == "vantage":
        array = ZCacheArray(lines, num_ways=4, candidates_per_miss=52, seed=seed)
        return VantageCache(
            array, cores, default_vantage_config(array), shared_policy=policy_name
        )
    array = SetAssociativeArray(lines, 16, hashed=True, seed=seed)
    if family == "waypart":
        return WayPartitionedCache(array, cores, shared_policy=policy_name)
    if family == "pipp":
        return PIPPCache(array, cores, seed=seed, shared_policy=policy_name)
    return BaselineCache(
        array, make_policy("lru", lines), cores, shared_policy=policy_name
    )


def _run_direct(family, policy_name, monkeypatch, seed, object_path=False):
    _clear_flags(monkeypatch)
    if object_path:
        monkeypatch.setenv("REPRO_FUSED", "0")
    config = small_system()
    # The shared table makes the same lines hot on every core, so
    # cross-core re-touches are guaranteed even in a short run.
    mix = make_shared_mix("sftn", 2, _shared_spec("shared-table", fraction=0.35))
    cache = _build_shared_cache(
        family, policy_name, config.l2_lines, config.num_cores, seed
    )
    system = CMPSystem(cache, mix.trace_factories(seed), config)
    tree = telemetry.system_tree(cache=cache, system=system, policy=None)
    result = system.run(INSTRUCTIONS)
    return result, tree.snapshot(), system


@pytest.mark.parametrize("policy_name", POLICIES)
@pytest.mark.parametrize("family", FAMILIES)
def test_shared_policy_paths_agree(monkeypatch, family, policy_name):
    """Object vs fast path, for each (scheme family, policy)."""
    base_result, base_stats, base = _run_direct(
        family, policy_name, monkeypatch, seed=9, object_path=True
    )
    assert base.batch_calls == 0
    assert sum(base.cache.shared_hits) > 0
    if policy_name == "migrate-to-requester":
        assert sum(base.cache.shared_moves) > 0

    result, stats, fast = _run_direct(family, policy_name, monkeypatch, seed=9)
    assert fast.batch_calls > 0
    assert result == base_result
    assert stats == base_stats


def test_promote_to_shared_parks_in_unmanaged(monkeypatch):
    """Vantage's promote-to-shared moves reused shared lines into the
    unmanaged region instead of flipping ownership."""
    _clear_flags(monkeypatch)
    result, stats, system = _run_direct(
        "vantage", "promote-to-shared", monkeypatch, seed=9
    )
    cache = system.cache
    assert sum(cache.shared_moves) > 0
    # Parked lines are no longer charged to any partition.
    assert cache.unmanaged_size > 0
