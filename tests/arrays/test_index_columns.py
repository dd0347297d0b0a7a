"""Per-chunk index columns agree with the scalar hashes.

Batch kernels read a pair's set index / positions / UMON hash from
columns built once per chunk (``index_column``), while the object path
hashes one address at a time.  Every column entry must equal the
scalar result for the same address, in every chunk form the trace
store hands out, with and without numpy.
"""

from array import array

import pytest

from repro.allocation.umon import ReuseUMonitor, UMonitor
from repro.allocation.umon_rrip import RRIPMonitor
from repro.arrays import (
    RandomCandidatesArray,
    SetAssociativeArray,
    SkewAssociativeArray,
    ZCacheArray,
)
from repro import lazy
from repro.arrays.hashing import H3Hash, hash_column
from repro.harness.runner import run_mix
from repro.sim import SystemConfig
from repro.workloads import make_mix


def _addresses():
    """Addresses below 2**32 (the scalar short-circuit), one core's
    slice above it (a shared upper half) and a mix of upper halves."""
    low = [0, 1, 255, 256, 0xDEAD, (1 << 32) - 1]
    core = [(5 << 44) + a for a in (0, 7, 4096, 123_457, (1 << 20) - 3)]
    mixed = [(c << 44) + 3 * c + 11 for c in range(8)] + [1 << 62, (1 << 63) - 1]
    return low + core + mixed


def _pairs(addrs):
    return [x for i, a in enumerate(addrs) for x in (i % 7, a)]


def _forms(addrs):
    """The chunk forms: a list, ``array('q')`` and the shared-memory
    ``memoryview('q')`` (a cast view over raw bytes)."""
    flat = _pairs(addrs)
    buf = array("q", flat)
    return {
        "list": flat,
        "array": buf,
        "memoryview": memoryview(bytearray(buf.tobytes())).cast("q"),
    }


ADDR_SETS = {
    "low": _addresses()[:6],
    "core": _addresses()[6:11],
    "mixed": _addresses(),
}


def _arrays():
    return {
        "sa16-hashed": SetAssociativeArray(1024, 16, hashed=True, seed=7),
        "sa4-modulo": SetAssociativeArray(256, 4, hashed=False),
        "skew4": SkewAssociativeArray(1024, 4, seed=11),
        "z4/16": ZCacheArray(1024, 4, candidates_per_miss=16, seed=13),
        "z4/52": ZCacheArray(4096, 4, candidates_per_miss=52, seed=17),
    }


def _expected(array_, addrs):
    if isinstance(array_, SkewAssociativeArray):
        return [slot for a in addrs for slot in array_.positions(a)]
    return [array_.set_index(a) for a in addrs]


@pytest.fixture(params=[True, False], ids=["numpy", "scalar"])
def numpy_mode(request, monkeypatch):
    """Run a test through both branches of ``hash_column``."""
    if not request.param:
        monkeypatch.setattr(lazy, "load_numpy", lambda: None)
    elif lazy.load_numpy() is None:
        pytest.skip("numpy not installed")
    return request.param


@pytest.mark.parametrize("addr_set", sorted(ADDR_SETS))
@pytest.mark.parametrize("form", ["list", "array", "memoryview"])
@pytest.mark.parametrize("name", sorted(_arrays()))
def test_array_column_matches_scalar(name, form, addr_set, numpy_mode):
    array_ = _arrays()[name]
    addrs = ADDR_SETS[addr_set]
    column = array_.index_column(_forms(addrs)[form])
    assert isinstance(column, array) and column.typecode == "q"
    assert column.tolist() == _expected(array_, addrs)


@pytest.mark.parametrize("form", ["list", "array", "memoryview"])
@pytest.mark.parametrize("monitor_cls", [UMonitor, RRIPMonitor])
def test_umon_column_matches_scalar(monitor_cls, form, numpy_mode):
    monitor = monitor_cls(16, 2048, sampled_sets=64, seed=5 + 17 * 3)
    addrs = _addresses()
    column = monitor.index_column(_forms(addrs)[form])
    assert column.tolist() == [monitor._hash(a) for a in addrs]


@pytest.mark.parametrize("monitor_cls", [UMonitor, RRIPMonitor, ReuseUMonitor])
def test_decide_from_column_matches_access(monitor_cls):
    """The sampling decision fed from the UMON column (the kernel
    lane) equals the one ``observe`` makes by hashing (the object
    lane): an access is sampled iff ``hash(addr) % period == 0``, and
    both lanes end with identical monitor state."""
    addrs = [(2 << 44) + 61 * i for i in range(4000)]
    walked = monitor_cls(16, 2048, sampled_sets=64, seed=9)
    fed = monitor_cls(16, 2048, sampled_sets=64, seed=9)
    column = fed.index_column(_pairs(addrs))
    period = walked._period
    taken = 0
    for i, a in enumerate(addrs):
        rule = walked._hash(a) % period == 0
        before = (_sampled(walked), _sampled(fed))
        walked.observe(a)
        fed.access(a, column[i])
        after = (_sampled(walked), _sampled(fed))
        assert after == (before[0] + rule, before[1] + rule)
        taken += rule
    assert 0 < taken < len(addrs)
    assert fed.miss_curve() == walked.miss_curve()


def _sampled(monitor) -> int:
    acc = monitor.accesses
    return sum(acc.values()) if isinstance(acc, dict) else acc


def test_bulk_matches_scalar_for_each_upper_half_case():
    np = pytest.importorskip("numpy")
    h = H3Hash(1 << 13, seed=21)
    for addrs in ADDR_SETS.values():
        keys = np.asarray(addrs, dtype=np.int64)
        assert h.bulk(keys).tolist() == [h(a) for a in addrs]
    assert h.bulk(np.asarray([], dtype=np.int64)).tolist() == []


def test_hash_column_interleaves_hashes_with_offsets(numpy_mode):
    hashes = (H3Hash(64, seed=1), H3Hash(64, seed=2))
    addrs = _addresses()
    column = hash_column(_pairs(addrs), hashes, (0, 1000))
    assert column.tolist() == [
        x for a in addrs for x in (hashes[0](a), hashes[1](a) + 1000)
    ]


def test_unhashed_arrays_have_no_column():
    assert RandomCandidatesArray(64, 8).index_column(_pairs([1, 2])) is None


# -- _pos_by_slot invariant ------------------------------------------------


def _tiny_config():
    # 1,024 lines: four cores fill it within a short run, so the
    # steady-state (full-array) walk and its relocations are exercised.
    return SystemConfig(
        num_cores=4,
        l2_bytes=64 * 1024,
        l2_banks=1,
        mem_bandwidth_gbs=4.0,
        epoch_cycles=50_000,
    )


@pytest.mark.parametrize("fused", ["1", "0"], ids=["kernel", "object"])
@pytest.mark.parametrize("scheme", ["vantage-z4/52", "lru-z4/16", "lru-skew4"])
def test_pos_by_slot_matches_positions_after_steady_state(
    scheme, fused, monkeypatch
):
    """Relocations derive a line's positions from ``_pos_by_slot``
    instead of rehashing; after a run that fills the array, every
    occupied slot's entry must still be its line's positions minus
    the slot itself."""
    monkeypatch.setenv("REPRO_FUSED", fused)
    run = run_mix(make_mix("sftn", 1), scheme, _tiny_config(), 40_000)
    array_ = run.cache.array
    assert (run.system.batch_calls > 0) is (fused == "1")
    assert len(array_._slot_of) == array_.num_lines
    if scheme != "lru-skew4":
        assert array_.stat_relocations > 0 or not array_._collect
    tags = array_._tags
    for slot in range(array_.num_lines):
        pos = array_.positions(tags[slot])
        assert slot in pos
        assert array_._pos_by_slot[slot] == tuple(p for p in pos if p != slot)
