"""Tests for the CMP simulation loop."""

import heapq
from itertools import cycle

import pytest

from repro.allocation import StaticPolicy
from repro.analysis import SizeTimeSeries
from repro.arrays import SetAssociativeArray
from repro.core import VantageCache, VantageConfig
from repro.partitioning import BaselineCache
from repro.replacement import make_policy
from repro.sim import CMPSystem, SystemConfig


def tiny_config(cores=2, **overrides):
    params = dict(
        num_cores=cores,
        l2_bytes=64 * 64,  # 64 lines
        l2_banks=1,
        mem_bandwidth_gbs=32.0,
        epoch_cycles=10_000,
    )
    params.update(overrides)
    return SystemConfig(**params)


def constant_trace(gap, addrs):
    """Factory producing an infinite looping trace."""

    def factory():
        def gen():
            while True:
                for a in addrs:
                    yield gap, a

        return gen()

    return factory


def build_baseline(config):
    array = SetAssociativeArray(config.l2_lines, 4, hashed=False)
    return BaselineCache(array, make_policy("lru", config.l2_lines), config.num_cores)


class TestTimingMath:
    def test_all_hits_ipc(self):
        """One L2 hit every `gap`+1 instructions costs hit_latency."""
        config = tiny_config(cores=1)
        cache = build_baseline(config)
        system = CMPSystem(cache, [constant_trace(9, [1, 2])], config)
        result = system.run(10_000)
        # Steady state: 10 instructions + 12 cycles per event.
        assert result.cores[0].ipc == pytest.approx(10 / 22, rel=0.05)

    def test_misses_cost_memory_latency(self):
        config = tiny_config(cores=1)
        cache = build_baseline(config)

        def factory():
            def gen():
                addr = 0
                while True:
                    addr += 1  # never reuse: always misses
                    yield 9, addr

            return gen()

        system = CMPSystem(cache, [factory], config)
        result = system.run(5_000)
        # 10 instructions + 12 + 200 + queueing per event.
        assert result.cores[0].ipc == pytest.approx(10 / 222, rel=0.10)

    def test_ipc_measured_at_target_crossing(self):
        """A fast core's IPC must not be polluted by cycles it spends
        waiting for slow cores to finish."""
        config = tiny_config(cores=2)
        cache = build_baseline(config)
        fast = constant_trace(9, [1])
        slow_factory = constant_trace(0, list(range(100, 2000)))
        system = CMPSystem(cache, [fast, slow_factory], config)
        result = system.run(2_000)
        assert result.cores[0].instructions == pytest.approx(2_000, abs=20)
        assert result.cores[0].ipc > 0.4


class _RecordingCache(BaselineCache):
    """Logs every L2 access as ``(core, addr)`` and always hits, so an
    event's cost is exactly ``gap + 1 + hit_latency``.  A subclass gets
    no fused kernel (and so no batch kernel): every event runs on the
    event loop's own scheduler."""

    def __init__(self, config):
        array = SetAssociativeArray(config.l2_lines, 4, hashed=False)
        super().__init__(array, make_policy("lru", config.l2_lines), config.num_cores)
        self.log = []

    def access(self, addr, part=0):
        self.log.append((part, addr))
        return True


def _gap_trace(cid, gaps):
    """Infinite trace cycling through ``gaps``; addresses tag the core
    and the event's position so the service order is readable."""

    def factory():
        return ((gap, (cid << 20) | i) for i, gap in enumerate(cycle(gaps)))

    return factory


def _heap_order(gap_lists, hit_latency, target):
    """Service order of a plain ``(t, cid)`` heap over the same
    traces, plus how many pops had a time tie with the next core."""
    traces = [_gap_trace(cid, gaps)() for cid, gaps in enumerate(gap_lists)]
    heap = [(0.0, cid) for cid in range(len(gap_lists))]
    heapq.heapify(heap)
    counts = [0] * len(gap_lists)
    finished = [False] * len(gap_lists)
    unfinished = len(gap_lists)
    order = []
    ties = 0
    while unfinished:
        now, cid = heapq.heappop(heap)
        if heap and heap[0][0] == now:
            ties += 1
        gap, addr = next(traces[cid])
        order.append((cid, addr))
        counts[cid] += gap + 1
        if counts[cid] >= target and not finished[cid]:
            finished[cid] = True
            unfinished -= 1
        heapq.heappush(heap, (now + gap + 1 + hit_latency, cid))
    return order, ties


class TestSchedulingOrder:
    #: Per-core gap cycles chosen so event times collide often: cores
    #: with equal gap sums tie at every cycle boundary.
    GAPS = ([1, 1, 5], [3, 0, 4], [1, 1, 5], [7], [0, 2, 5], [2, 2, 3])

    @pytest.mark.parametrize("cores", [2, 4, 8])
    def test_scan_serves_cores_in_heap_order(self, cores):
        """The <=8-core two-minimum scan and its run continuation serve
        cores in exactly the ``(t, cid)`` order of a heap, ties to the
        lowest core ID included."""
        config = tiny_config(cores=cores)
        gap_lists = [self.GAPS[cid % len(self.GAPS)] for cid in range(cores)]
        cache = _RecordingCache(config)
        system = CMPSystem(
            cache,
            [_gap_trace(cid, gaps) for cid, gaps in enumerate(gap_lists)],
            config,
        )
        system.run(2_000)
        expected, ties = _heap_order(gap_lists, config.l2_hit_latency, 2_000)
        assert ties > 0, "the traces produced no time ties to order"
        assert cache.log == expected


class TestDeterminism:
    def test_same_seed_same_result(self):
        def run_once():
            config = tiny_config(cores=2)
            cache = build_baseline(config)
            system = CMPSystem(
                cache,
                [constant_trace(3, [1, 2, 3]), constant_trace(2, list(range(50, 130)))],
                config,
            )
            return system.run(3_000).throughput

        assert run_once() == run_once()


class TestEpochs:
    def test_policy_invoked_each_epoch(self):
        config = tiny_config(cores=2, epoch_cycles=1_000)

        calls = []

        class CountingPolicy(StaticPolicy):
            def allocate(self):
                calls.append(1)
                return super().allocate()

        array = SetAssociativeArray(config.l2_lines, 4, hashed=True, seed=0)
        cache = VantageCache(array, 2, VantageConfig(unmanaged_fraction=0.2))
        policy = CountingPolicy([25, 26])
        system = CMPSystem(
            cache,
            [constant_trace(3, [1, 2, 3]), constant_trace(3, list(range(50, 100)))],
            config,
            policy=policy,
        )
        system.run(5_000)
        assert len(calls) >= 3
        assert cache.target == [25, 26]

    def test_size_series_sampled(self):
        config = tiny_config(cores=2, epoch_cycles=2_000)
        array = SetAssociativeArray(config.l2_lines, 4, hashed=True, seed=0)
        cache = VantageCache(array, 2, VantageConfig(unmanaged_fraction=0.2))
        series = SizeTimeSeries(2)
        system = CMPSystem(
            cache,
            [constant_trace(3, [1, 2, 3]), constant_trace(3, list(range(50, 100)))],
            config,
            policy=StaticPolicy([25, 26]),
            size_series=series,
            size_sample_cycles=1_000,
        )
        system.run(5_000)
        assert len(series.times) >= 4
        assert series.times == sorted(series.times)


class TestL1Path:
    def test_l1_filters_hot_lines(self):
        config = tiny_config(cores=1)
        cache = build_baseline(config)
        system = CMPSystem(cache, [constant_trace(0, [1, 2, 3])], config, use_l1=True)
        system.run(3_000)
        # After three compulsory L1 misses, everything hits in L1.
        assert cache.stats.total_accesses <= 10


class TestValidation:
    def test_trace_count_must_match_cores(self):
        config = tiny_config(cores=2)
        cache = build_baseline(config)
        with pytest.raises(ValueError):
            CMPSystem(cache, [constant_trace(1, [1])], config)

    def test_empty_trace_raises_naming_the_core(self):
        """A factory whose iterator yields nothing must surface as a
        ValueError naming the offending core, not a bare StopIteration
        swallowed (or propagated) by the event loop."""
        config = tiny_config(cores=2)
        cache = build_baseline(config)
        system = CMPSystem(
            cache, [constant_trace(3, [1, 2]), lambda: iter(())], config
        )
        with pytest.raises(ValueError, match="core 1"):
            system.run(1_000)

    def test_empty_trace_raises_in_reference_loop_too(self, monkeypatch):
        """The same error on the reference object path (``REPRO_FUSED=0``)."""
        monkeypatch.setenv("REPRO_FUSED", "0")
        config = tiny_config(cores=2)
        cache = build_baseline(config)
        assert not cache.fused
        system = CMPSystem(
            cache, [lambda: iter(()), constant_trace(3, [1, 2])], config
        )
        with pytest.raises(ValueError, match="core 0"):
            system.run(1_000)

    def test_exhausted_trace_mid_segment_on_batch_path(self, monkeypatch):
        """A chunked trace that ends mid-run surfaces through the batch
        kernel's refill return (reason 2) as the same core-naming
        ValueError the generator cursor raises -- never a bare
        StopIteration or an anonymous compile error."""
        from repro.traces import TraceSpec
        from repro.traces.store import reset_store

        class FiniteSpec(TraceSpec):
            """Stream ends after exactly one 64-pair chunk, so the
            first refill succeeds and the second -- requested from
            inside a batched segment -- hits the exhausted stream."""

            def generator(self):
                return ((0, i & 7) for i in range(64))

        monkeypatch.setenv("REPRO_TRACE_CHUNK_PAIRS", "64")
        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        monkeypatch.delenv("REPRO_FUSED", raising=False)
        reset_store()
        try:
            config = tiny_config(cores=2)
            cache = build_baseline(config)
            peer = TraceSpec(
                name="finite-test-peer", kind="scan", params=(8, 1),
                base=0, seed=1,
            )
            finite = FiniteSpec(
                name="finite-test", kind="scan", params=(8, 1),
                base=1 << 20, seed=424243,
            )
            system = CMPSystem(cache, [peer, finite], config)
            with pytest.raises(ValueError, match="core 1"):
                system.run(100_000)
            # The failure must have come out of the batch path, not a
            # silent fallback to the generator cursor.
            assert system.batch_calls > 0
        finally:
            monkeypatch.undo()
            reset_store()
