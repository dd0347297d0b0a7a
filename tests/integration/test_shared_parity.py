"""Cross-path parity on shared-address mixes.

Shared-region workloads are the one place where an access's requesting
core and the line's owning partition diverge, which activates code that
is dormant on every multiprogrammed mix: the per-line ``touched_by``
bitmask, the on-shared-hit policies (keep-owner / migrate-to-requester
/ promote-to-shared), Vantage's unmanaged parking for promoted lines,
and the reuse-aware UCP stack.  All of it is replicated across the
object path (``REPRO_FUSED=0``, the reference) and the fast path (batch
kernels plus single-access fused closures), so the parity guarantee
that covers private mixes must hold here:

* the ``reuse-aware`` scheme on both lanes, for every sharing shape,
* every shared-hit policy on every scheme family, object vs fast.
"""

import pytest

from repro import telemetry
from repro.arrays import SetAssociativeArray, ZCacheArray
from repro.core import VantageCache
from repro.harness.env import require_bitwise
from repro.harness.runner import run_mix
from repro.harness.schemes import default_vantage_config
from repro.partitioning import BaselineCache, PIPPCache, WayPartitionedCache
from repro.replacement import make_policy
from repro.sim import CMPSystem
from repro.sim.configs import small_system
from repro.workloads import SharedRegionSpec, make_shared_mix

@pytest.fixture(autouse=True)
def _bitwise_guard():
    """The shared-parity suite pins exact simulation; a stray
    ``REPRO_FASTFWD=1`` in the environment must fail loudly, not
    produce baffling diffs."""
    require_bitwise("the shared-parity suite")


INSTRUCTIONS = 6_000

#: Short epoch so the reuse-aware policy actually repartitions mid-run
#: (splitting batched segments at service boundaries).
EPOCH_CYCLES = 20_000

KINDS = ("producer-consumer", "shared-table", "migratory")

#: The lane switch that selects the object path.
OBJECT_PATH = (("REPRO_FUSED", "0"),)


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


@pytest.mark.parametrize(
    "kind,seed,flags", [(*point, OBJECT_PATH) for point in SAMPLE_POINTS]
)
def test_reuse_aware_flag_cube(monkeypatch, kind, seed, flags):
    """The object path (``flags``) is the same simulation as the fast
    path on shared mixes."""
    mix = make_shared_mix("sftn", 1, _shared_spec(kind))
    config = small_system(epoch_cycles=EPOCH_CYCLES)

    _clear_flags(monkeypatch)
    baseline = run_mix(mix, "reuse-aware-z4/52", config, INSTRUCTIONS, seed=seed)
    # The mix must genuinely exercise the shared-hit machinery,
    # otherwise this parametrization proves nothing.
    assert sum(baseline.cache.shared_hits) > 0

    for name, value in flags:
        monkeypatch.setenv(name, value)
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


def _run_direct(family, policy_name, flags, monkeypatch, seed):
    _clear_flags(monkeypatch)
    for name, value in flags.items():
        monkeypatch.setenv(name, value)
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
    return result, tree.snapshot(), cache


@pytest.mark.parametrize("policy_name", POLICIES)
@pytest.mark.parametrize("family", FAMILIES)
def test_shared_policy_paths_agree(monkeypatch, family, policy_name):
    """Object vs fast path, for each (scheme family, policy)."""
    base_result, base_stats, base_cache = _run_direct(
        family, policy_name, dict(OBJECT_PATH), monkeypatch, seed=9
    )
    assert sum(base_cache.shared_hits) > 0
    if policy_name == "migrate-to-requester":
        assert sum(base_cache.shared_moves) > 0

    result, stats, cache = _run_direct(family, policy_name, {}, monkeypatch, seed=9)
    assert cache.fused
    assert result == base_result
    assert stats == base_stats


def test_promote_to_shared_parks_in_unmanaged(monkeypatch):
    """Vantage's promote-to-shared moves reused shared lines into the
    unmanaged region instead of flipping ownership."""
    _clear_flags(monkeypatch)
    result, stats, cache = _run_direct(
        "vantage", "promote-to-shared", {}, monkeypatch, seed=9
    )
    assert sum(cache.shared_moves) > 0
    # Parked lines are no longer charged to any partition.
    assert cache.unmanaged_size > 0
