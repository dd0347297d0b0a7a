"""Tests for the RRIP-chain UMON (Section 6.2's Vantage-DRRIP monitor)."""

import pytest

from repro.allocation import RRIPMonitor


class TestRRIPMonitor:
    def test_validation(self):
        with pytest.raises(ValueError):
            RRIPMonitor(0, 64)
        with pytest.raises(ValueError):
            RRIPMonitor(4, 63)
        with pytest.raises(ValueError):
            RRIPMonitor(4, 64, sampled_sets=1)

    def test_halves_split_srrip_brrip(self):
        m = RRIPMonitor(8, 64, sampled_sets=64, seed=0)
        halves = {m._half(s) for s in range(64)}
        assert halves == {"srrip", "brrip"}
        srrip_count = sum(1 for s in range(64) if m._half(s) == "srrip")
        assert srrip_count == 32

    def test_reuse_counts_as_hits(self):
        m = RRIPMonitor(8, 2, sampled_sets=2, seed=0)
        for _ in range(20):
            for a in range(4):
                m.observe(a)
        curve = m.miss_curve()
        assert curve[0] > curve[-1]  # capacity helps
        assert curve == sorted(curve, reverse=True)

    def test_scan_hurts_brrip_less(self):
        """A thrash pattern (loop > ways) should favour BRRIP: its
        max-RRPV insertions preserve part of the loop."""
        m = RRIPMonitor(4, 2, sampled_sets=2, seed=1)
        for _ in range(300):
            for a in range(12):  # loop 3x the shadow capacity
                m.observe(a)
        assert m.best_policy() == "brrip"

    def test_reuse_friendly_prefers_srrip(self):
        m = RRIPMonitor(4, 2, sampled_sets=2, seed=2)
        for _ in range(200):
            for a in range(3):  # fits: SRRIP keeps everything
                m.observe(a)
        assert m.best_policy() == "srrip"

    def test_epoch_reset_halves_counters(self):
        m = RRIPMonitor(4, 2, sampled_sets=2, seed=3)
        for _ in range(10):
            m.observe(1)
        m.epoch_reset()
        total = m.accesses["srrip"] + m.accesses["brrip"]
        assert total == 5

    def test_miss_curve_length(self):
        m = RRIPMonitor(6, 2, sampled_sets=2)
        assert len(m.miss_curve()) == 7
