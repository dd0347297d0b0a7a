"""UMonitor, ReuseUMonitor and RRIPMonitor present one telemetry
interface (:class:`repro.telemetry.SampledMonitor`), so UCP reports
through a single path with no per-monitor capability probing.  A
monitor samples by set index alone (``set_index % period == 0``) and
keeps no per-address state."""

import random

import pytest

from repro.allocation import ReuseUMonitor, UCPPolicy, UMonitor
from repro.allocation.umon_rrip import RRIPMonitor
from repro.telemetry import SampledMonitor, StatGroup

MONITORS = [
    lambda: UMonitor(8, 256, sampled_sets=16, seed=3),
    lambda: RRIPMonitor(8, 256, sampled_sets=16, seed=3),
    lambda: ReuseUMonitor(8, 256, sampled_sets=16, seed=3),
]


def sampled(mon) -> int:
    """The monitor's sampled-access count (RRIP: both halves)."""
    acc = mon.accesses
    return sum(acc.values()) if isinstance(acc, dict) else acc


@pytest.mark.parametrize("factory", MONITORS)
class TestSampledMonitorContract:
    def test_is_sampled_monitor(self, factory):
        assert isinstance(factory(), SampledMonitor)

    def test_sampling_is_set_index_mod_period(self, factory):
        mon = factory()
        rng = random.Random(11)
        addrs = [rng.randrange(1 << 30) for _ in range(500)]
        hits = 0
        for addr in addrs:
            before = sampled(mon)
            mon.observe(addr)
            taken = sampled(mon) - before
            assert taken == (mon._hash(addr) % mon._period == 0)
            hits += taken
        assert 0 < hits < len(addrs)  # both outcomes occur
        assert not hasattr(mon, "_sample_cache")  # no per-address memo

    def test_observe_equals_access(self, factory):
        a, b = factory(), factory()
        rng = random.Random(12)
        addrs = [rng.randrange(1 << 30) for _ in range(300)]
        for addr in addrs:
            a.observe(addr)
            b.access(addr, b._hash(addr))
        assert a.miss_curve() == b.miss_curve()
        assert sampled(a) == sampled(b) > 0

    def test_register_stats_reports_sampled_accesses(self, factory):
        mon = factory()
        addr = next(a for a in range(1 << 16) if mon._hash(a) % mon._period == 0)
        mon.observe(addr)
        group = StatGroup("mon")
        mon.register_stats(group)
        snap = group.snapshot()
        assert "decided_addresses" not in snap
        got = snap["sampled_accesses"]
        assert (sum(got.values()) if isinstance(got, dict) else got) == 1


@pytest.mark.parametrize("factory", MONITORS)
def test_ucp_observe_uses_uniform_path(factory):
    """UCP's sampled-set skip works identically for every monitor
    kind: skipped accesses never reach the monitor, sampled ones do,
    and a caller-supplied set index (the kernel lane's column entry)
    decides exactly like hashing (the object lane)."""
    hashed = [factory() for _ in range(2)]
    indexed = [factory() for _ in range(2)]
    policy = UCPPolicy(hashed, total_units=16)
    fed = UCPPolicy(indexed, total_units=16)
    rng = random.Random(13)
    addrs = [rng.randrange(1 << 30) for _ in range(400)]
    for addr in addrs:
        for _ in range(2):
            policy.observe(0, addr)
            fed.observe(0, addr, indexed[0]._hash(addr))

    mon = hashed[0]
    expected = 2 * sum(1 for a in addrs if mon._hash(a) % mon._period == 0)
    assert policy.observed == fed.observed == [expected, 0]
    assert sampled(mon) == expected > 0
    assert mon.miss_curve() == indexed[0].miss_curve()
    # The untouched partition's monitor saw nothing.
    assert sampled(hashed[1]) == sampled(indexed[1]) == 0


def test_ucp_allocate_works_with_rrip_monitors():
    monitors = [RRIPMonitor(8, 256, sampled_sets=16, seed=s) for s in range(2)]
    policy = UCPPolicy(monitors, total_units=8)
    rng = random.Random(14)
    for _ in range(2000):
        policy.observe(rng.randrange(2), rng.randrange(1 << 14))
    units = policy.allocate()
    assert sum(units) == 8
    assert policy.last_allocation == units
