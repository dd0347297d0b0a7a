"""Tests for the UMON-DSS utility monitor."""

import random

import pytest

from repro.allocation import UMonitor, interpolate_curve


class TestShadowTags:
    def test_hit_counters_track_stack_positions(self):
        """A fully-sampled monitor is an exact LRU stack-distance
        profiler."""
        m = UMonitor(4, model_sets=1, sampled_sets=1, seed=0)
        stream = [1, 2, 3, 1, 2, 3, 1, 2, 3]
        for addr in stream:
            m.observe(addr)
        # After warmup, every access hits at stack distance 2 (0-based).
        assert m.hits[2] == 6
        assert m.hits[0] == m.hits[1] == 0
        assert m.accesses == 9

    def test_mru_hit_position_zero(self):
        m = UMonitor(4, model_sets=1, sampled_sets=1, seed=0)
        m.observe(5)
        m.observe(5)
        assert m.hits[0] == 1

    def test_capacity_bounded_by_ways(self):
        m = UMonitor(2, model_sets=1, sampled_sets=1, seed=0)
        for addr in (1, 2, 3):  # 3 distinct lines, 2-way stack
            m.observe(addr)
        m.observe(1)  # was evicted from the shadow stack
        assert sum(m.hits) == 0

    def test_miss_curve_shape(self):
        m = UMonitor(4, model_sets=1, sampled_sets=1, seed=0)
        for _ in range(3):
            for addr in (1, 2, 3):
                m.observe(addr)
        curve = m.miss_curve()
        assert len(curve) == 5
        assert curve[0] == m.accesses
        assert curve == sorted(curve, reverse=True)
        # 3-line loop: fits in 3 ways, no extra benefit at 4.
        assert curve[3] == curve[4]

    def test_sampling_reduces_observed_accesses(self):
        full = UMonitor(8, model_sets=64, sampled_sets=64, seed=1)
        sampled = UMonitor(8, model_sets=64, sampled_sets=8, seed=1)
        rng = random.Random(0)
        addrs = [rng.randrange(10_000) for _ in range(5000)]
        for a in addrs:
            full.observe(a)
            sampled.observe(a)
        assert full.accesses == 5000
        assert 0.05 < sampled.accesses / 5000 < 0.25

    def test_epoch_reset_halves(self):
        m = UMonitor(2, model_sets=1, sampled_sets=1, seed=0)
        for _ in range(10):
            m.observe(1)
        m.epoch_reset()
        assert m.accesses == 5
        assert m.hits[0] == 4  # 9 hits // 2

    def test_validation(self):
        with pytest.raises(ValueError):
            UMonitor(0, 64)
        with pytest.raises(ValueError):
            UMonitor(4, 63)
        with pytest.raises(ValueError):
            UMonitor(4, 64, sampled_sets=48)


class TestInterpolation:
    def test_endpoints_preserved(self):
        curve = [100.0, 60.0, 30.0, 10.0, 5.0]
        out = interpolate_curve(curve, 256)
        assert out[0] == 100.0
        assert out[-1] == 5.0
        assert len(out) == 257

    def test_linear_between_points(self):
        curve = [100.0, 0.0]
        out = interpolate_curve(curve, 4)
        assert out == [100.0, 75.0, 50.0, 25.0, 0.0]

    def test_monotone_input_stays_monotone(self):
        curve = [100.0, 80.0, 50.0, 49.0, 10.0]
        out = interpolate_curve(curve, 64)
        assert all(a >= b for a, b in zip(out, out[1:]))

    def test_too_short_curve(self):
        with pytest.raises(ValueError):
            interpolate_curve([1.0], 16)
