"""The optimized kernels are pure strength reductions: every
simulation must produce results identical to the reference, the object
path (``REPRO_FUSED=0``: no batch kernel, every event through
``cache.access``).  The array-level walk parity tests at the end pin
the fast ``candidate_slots`` walk to the full ``candidates`` list the
same way.
"""

from __future__ import annotations

import pytest

from repro.arrays.base import CacheArray
from repro.arrays.set_assoc import SetAssociativeArray
from repro.arrays.skew import SkewAssociativeArray
from repro.arrays.zcache import ZCacheArray
from repro.harness import build_policy
from repro.harness.schemes import build_cache
from repro.sim import CMPSystem, small_system
from repro.workloads import make_mix

INSTRUCTIONS = 12_000


def _simulate(
    monkeypatch,
    scheme: str,
    partitioned: bool,
    reference: bool,
    plain_callables: bool = False,
):
    """One run; ``reference`` selects the object path
    (``REPRO_FUSED=0``), ``plain_callables`` hands every core its trace
    as a plain callable instead of a :class:`~repro.traces.TraceSpec`,
    so the generator feed replaces the chunk cursor."""
    config = small_system()
    mix = make_mix("sftn", 1)
    if reference:
        monkeypatch.setenv("REPRO_FUSED", "0")
    else:
        monkeypatch.delenv("REPRO_FUSED", raising=False)
    cache = build_cache(scheme, config.l2_lines, config.num_cores, seed=0)
    policy = build_policy(cache, config, 0) if partitioned else None
    factories = mix.trace_factories(0)
    if plain_callables:
        factories = [spec.generator for spec in factories]
    system = CMPSystem(cache, factories, config, policy=policy)
    result = system.run(INSTRUCTIONS)
    assert (system.batch_calls > 0) == (not reference and not plain_callables)
    return result


@pytest.mark.parametrize(
    "scheme,partitioned",
    [
        ("vantage-z4/52", True),
        ("vantage-z4/16", True),
        ("vantage-sa16", True),
        ("lru-sa16", False),
        ("lru-z4/52", False),
    ],
)
def test_reference_and_optimized_results_identical(monkeypatch, scheme, partitioned):
    optimized = _simulate(monkeypatch, scheme, partitioned, reference=False)
    reference = _simulate(monkeypatch, scheme, partitioned, reference=True)
    assert optimized == reference


@pytest.mark.parametrize(
    "scheme,partitioned",
    [("vantage-z4/52", True), ("lru-sa16", False)],
)
def test_chunk_and_generator_feeds_identical(monkeypatch, scheme, partitioned):
    """The chunk-cursor feed is a pure re-encoding of the generator
    feed: same events in the same order, so bitwise-equal results --
    and both equal the reference."""
    chunked = _simulate(monkeypatch, scheme, partitioned, reference=False)
    generated = _simulate(
        monkeypatch, scheme, partitioned, reference=False, plain_callables=True
    )
    reference = _simulate(
        monkeypatch, scheme, partitioned, reference=True, plain_callables=True
    )
    assert chunked == generated
    assert chunked == reference


def test_chunk_feed_cold_and_warm_disk_cache_identical(tmp_path, monkeypatch):
    """Compiling chunks, reading them back from disk, and skipping the
    disk entirely must all replay the same simulation."""
    from repro.traces import get_store, reset_store

    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    reset_store()
    no_disk = _simulate(monkeypatch, "vantage-z4/52", True, reference=False)

    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    reset_store()
    cold = _simulate(monkeypatch, "vantage-z4/52", True, reference=False)
    assert get_store().bytes_written > 0  # the cold run populated disk

    reset_store()  # fresh memory: the warm run must come from disk
    warm = _simulate(monkeypatch, "vantage-z4/52", True, reference=False)
    assert get_store().disk_hits > 0
    assert get_store().compiles == 0

    reset_store()
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    assert cold == no_disk
    assert warm == no_disk


def _walk_parity(array: CacheArray, addrs: list[int]) -> None:
    """candidate_slots/make_candidate must reproduce candidates()
    exactly: same slots, same discovery order, same paths -- up to the
    early stop at the first empty candidate."""
    for addr in addrs:
        full = array.candidates(addr)
        fast = array.candidate_slots(addr)
        if fast is None:
            continue
        slots, parents, has_empty = fast
        slots = list(slots)
        assert slots == [c.slot for c in full[: len(slots)]]
        if has_empty:
            assert array.addr_at(slots[-1]) is None
        rebuilt = [
            array.make_candidate(slots, parents, i) for i in range(len(slots))
        ]
        assert rebuilt == full[: len(slots)]
        if not has_empty:
            assert len(slots) == len(full)
        # Install into the chosen victim exactly as a cache would, so
        # the parity check sweeps over changing occupancy.
        victim = rebuilt[-1]
        array.install(addr, victim)


def _fill_addrs(n: int, seed: int = 9) -> list[int]:
    import random

    rng = random.Random(seed)
    return [rng.randrange(1 << 30) for _ in range(n)]


@pytest.mark.parametrize(
    "factory",
    [
        lambda: ZCacheArray(256, num_ways=4, candidates_per_miss=16, seed=1),
        lambda: ZCacheArray(128, num_ways=4, candidates_per_miss=52, seed=2),
        lambda: SkewAssociativeArray(256, num_ways=4, seed=3),
        lambda: SetAssociativeArray(256, num_ways=16, seed=4),
    ],
)
def test_candidate_walk_parity_cold_to_full(factory):
    """Parity from an empty array through total occupancy, which
    drives the zcache walk through its careful mode (empty stops) and
    its full-array mode (_WalkLevels path reconstruction)."""
    array = factory()
    addrs = [a for a in _fill_addrs(3 * array.num_lines) if array.lookup(a) is None]
    # Dedup preserving order; install changes membership as we go, so
    # re-check inside the loop instead.
    seen = set()
    unique = [a for a in addrs if not (a in seen or seen.add(a))]
    installed = 0
    for addr in unique:
        if array.lookup(addr) is not None:
            continue
        _walk_parity(array, [addr])
        installed += 1
    assert installed > array.num_lines  # reached and exercised full mode
    assert len(array._slot_of) == array.num_lines


def test_zcache_full_mode_paths_are_valid():
    """In full-array mode every reconstructed path must be a real
    relocation chain: consecutive slots linked by the resident line's
    alternative positions."""
    array = ZCacheArray(64, num_ways=4, candidates_per_miss=16, seed=5)
    addrs = _fill_addrs(400, seed=6)
    for addr in addrs:
        if array.lookup(addr) is not None:
            continue
        fast = array.candidate_slots(addr)
        slots, parents, has_empty = fast
        slots = list(slots)
        for i in range(len(slots)):
            cand = array.make_candidate(slots, parents, i)
            assert cand.slot == slots[i]
            for parent, child in zip(cand.path, cand.path[1:]):
                line = array.addr_at(parent)
                assert line is not None
                assert child in array.positions(line)
        victim = array.make_candidate(slots, parents, len(slots) - 1)
        array.install(addr, victim)
