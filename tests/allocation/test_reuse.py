"""Tests for the reuse-aware monitor and UCP policy."""

import pytest

from repro.allocation import ReuseAwareUCPPolicy, ReuseUMonitor


def _full_monitor(ways=4):
    """Fully-sampled monitor: every address lands in the one set
    (set index 0, which ``access`` callers pass directly)."""
    return ReuseUMonitor(ways, model_sets=1, sampled_sets=1, seed=0)


class TestReuseUMonitor:
    def test_shared_subset_tracked_alongside_totals(self):
        m = _full_monitor()
        stream = [(1, False), (2, True), (1, False), (2, True)]
        for addr, shared in stream:
            m.access(addr, 0, shared=shared)
        assert m.accesses == 4
        assert m.shared_accesses == 2
        # Second touch of each address hits at stack distance 1.
        assert m.hits[1] == 2
        assert m.shared_hits[1] == 1

    def test_curves_decompose(self):
        """private + shared = total, pointwise."""
        m = _full_monitor()
        for i in range(40):
            m.access(i % 3, 0, shared=(i % 2 == 0))
        total = m.miss_curve()
        private = m.private_curve()
        shared = m.shared_curve()
        assert [p + s for p, s in zip(private, shared)] == total
        assert shared[0] == m.shared_accesses

    def test_default_is_private(self):
        m = _full_monitor()
        for addr in (1, 2, 1, 2):
            m.observe(addr)
        assert m.shared_accesses == 0
        assert m.shared_curve() == [0.0] * (m.num_ways + 1)
        assert m.private_curve() == m.miss_curve()

    def test_epoch_reset_halves_shared_counters(self):
        m = _full_monitor()
        for _ in range(10):
            m.access(7, 0, shared=True)
        m.epoch_reset()
        assert m.shared_accesses == 5
        assert m.shared_hits[0] == 4  # 9 hits // 2


def _policy(num_parts=2, total=4, ways=4):
    monitors = [_full_monitor(ways) for _ in range(num_parts)]
    return ReuseAwareUCPPolicy(monitors, total_units=total, min_units=1)


class TestReuseAwareUCPPolicy:
    def test_rejects_mismatched_hash_seeds(self):
        monitors = [
            ReuseUMonitor(4, model_sets=64, sampled_sets=64, seed=s)
            for s in (0, 1)
        ]
        with pytest.raises(ValueError, match="hash seed"):
            ReuseAwareUCPPolicy(monitors, total_units=8)

    def test_first_touch_classification(self):
        """The first partition to touch an address owns it; later
        touches by other partitions are shared reuse."""
        p = _policy()
        p.observe(0, 100)
        p.observe(1, 100)
        p.observe(0, 100)
        p.observe(1, 200)
        assert p.shared_observed == [0, 1]
        assert p.monitors[0].shared_accesses == 0
        assert p.monitors[1].shared_accesses == 1

    def test_first_touch_table_bounded(self):
        p = _policy()
        p.FIRST_TOUCH_CAP = 4
        for addr in range(4):
            p.observe(0, addr)
        assert len(p._first_touch) == 4
        # At the cap the table is cleared wholesale, then re-seeded.
        p.observe(0, 99)
        assert p._first_touch == {99: 0}

    def test_allocation_sums_to_total(self):
        p = _policy()
        for i in range(50):
            p.observe(i % 2, i % 5)
        units = p.allocate()
        assert sum(units) == p.total_units
        assert all(u >= p.min_units for u in units)
        assert p.last_allocation == units

    def test_shared_units_folded_to_sharers(self):
        """Capacity won by the pooled shared curve goes to partitions
        with shared reuse, not to the private-only partition."""
        p = _policy(num_parts=2, total=8, ways=8)
        # Partition 0: modest private reuse.  Partition 1: all its
        # utility is shared reuse (another partition touched first).
        m0, m1 = p.monitors
        m0.accesses = 100
        m0.hits = [10, 0, 0, 0, 0, 0, 0, 0]
        m1.accesses = 100
        m1.hits = [0, 90, 0, 0, 0, 0, 0, 0]
        m1.shared_accesses = 100
        m1.shared_hits = [0, 90, 0, 0, 0, 0, 0, 0]
        units = p.allocate()
        assert sum(units) == 8
        # Partition 1's private curve is flat (zero utility); anything
        # beyond its floor must have come from the shared fold-back.
        assert units[1] > p.min_units
        assert units[1] > units[0]

    def test_round_robin_when_no_sharers_recorded(self):
        """Shared pseudo-units with zero recorded shared volume (all
        curves flat) still get assigned -- every unit is handed out."""
        p = _policy()
        units = p.allocate()
        assert sum(units) == p.total_units

    def test_allocate_decays_monitors(self):
        p = _policy()
        for _ in range(10):
            p.observe(0, 1)
            p.observe(1, 1)
        shared_before = p.monitors[1].shared_accesses
        p.allocate()
        assert p.monitors[1].shared_accesses == shared_before // 2
