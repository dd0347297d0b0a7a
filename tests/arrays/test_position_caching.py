"""Tests for the per-instance position and set-index memos behind the
scalar ``positions()`` / ``set_index()`` paths (batch kernels read
per-chunk index columns instead): the memos must never return stale
or wrong positions, and must stay bounded."""

from repro.arrays import SetAssociativeArray, SkewAssociativeArray, ZCacheArray
from repro.arrays.hashing import H3Family


class TestSkewPositionCache:
    def test_cache_agrees_with_direct_hashing(self):
        array = SkewAssociativeArray(256, 4, seed=5)
        fam = H3Family(4, 64, seed=5)
        for addr in range(500):
            cached = array.positions(addr)
            direct = tuple(w * 64 + fam[w](addr) for w in range(4))
            assert cached == direct
            # Second call returns the memoised tuple unchanged.
            assert array.positions(addr) == cached

    def test_position_cache_is_bounded(self):
        array = SkewAssociativeArray(64, 4, seed=11)
        cap = array._position_cache_cap
        assert cap == 1 << 16
        expected = {}
        for addr in range(cap + cap // 4):
            expected[addr] = array.positions(addr)
            assert len(array._position_cache) <= cap
        for addr in (0, cap - 1, cap, cap + cap // 4 - 1):
            assert array.positions(addr) == expected[addr]

    def test_positions_stable_across_installs(self):
        array = ZCacheArray(256, 4, candidates_per_miss=16, seed=6)
        before = {a: array.positions(a) for a in range(100)}
        for a in range(100):
            cands = array.candidates(a)
            empty = next((c for c in cands if c.addr is None), None)
            array.install(a, empty if empty is not None else cands[0])
        for a, positions in before.items():
            assert array.positions(a) == positions


class TestSetAssocIndexCache:
    def test_hashed_index_memoised_consistently(self):
        array = SetAssociativeArray(1024, 16, hashed=True, seed=7)
        first = [array.set_index(a) for a in range(300)]
        second = [array.set_index(a) for a in range(300)]
        assert first == second

    def test_index_cache_is_bounded(self):
        # A long run over far more distinct addresses than the cap must
        # not grow the memo without bound; after the wholesale flush the
        # returned indices must still be correct.
        array = SetAssociativeArray(64, 4, hashed=True, seed=9)
        cap = array._index_cache_cap
        assert cap == 1 << 16  # max(4 * 64, 1 << 16)
        indices = {}
        for addr in range(cap + cap // 2):
            indices[addr] = array.set_index(addr)
            assert len(array._index_cache) <= cap
        # Spot-check entries from before and after the flush.
        for addr in (0, 1, cap - 1, cap, cap + cap // 2 - 1):
            assert array.set_index(addr) == indices[addr]
            assert array.set_index(addr) == array._hash(addr)

    def test_positions_lie_in_the_indexed_set(self):
        array = SetAssociativeArray(1024, 16, hashed=True, seed=8)
        for addr in range(200):
            set_index = array.set_index(addr)
            for slot in array.positions(addr):
                assert slot // 16 == set_index


class TestMemosArePerInstance:
    """Same-identity arrays (same geometry and seed) keep separate
    memos, so one array's history never sizes another's memory."""

    def test_set_assoc(self):
        a = SetAssociativeArray(64, 4, hashed=True, seed=3)
        b = SetAssociativeArray(64, 4, hashed=True, seed=3)
        assert a._index_cache is not b._index_cache
        a.set_index(12345)
        assert b._index_cache == {}
        assert b.set_index(12345) == a.set_index(12345)

    def test_skew_and_zcache(self):
        a = SkewAssociativeArray(64, 4, seed=3)
        b = ZCacheArray(64, 4, candidates_per_miss=16, seed=3)
        assert a._position_cache is not b._position_cache
        a.positions(12345)
        assert b._position_cache == {}
        assert b.positions(12345) == a.positions(12345)


class TestMemoFlushBoundary:
    """The wholesale flush fires exactly at ``max(4 * lines, 2**16)``:
    the memo holds precisely cap entries, and the insert *after* the
    cap is reached clears it down to the single fresh entry."""

    def test_cap_formula_tracks_large_arrays(self):
        # Small arrays floor at 2**16; past 16k lines the 4x term wins.
        assert SetAssociativeArray(64, 4, seed=1)._index_cache_cap == 1 << 16
        assert (
            SetAssociativeArray(32768, 16, seed=1)._index_cache_cap
            == 4 * 32768
        )
        assert SkewAssociativeArray(64, 4, seed=1)._position_cache_cap == 1 << 16
        assert (
            SkewAssociativeArray(32768, 4, seed=1)._position_cache_cap
            == 4 * 32768
        )

    def test_index_cache_flushes_exactly_at_cap(self):
        array = SetAssociativeArray(64, 4, hashed=True, seed=23)
        cap = array._index_cache_cap
        for addr in range(cap):
            array.set_index(addr)
        assert len(array._index_cache) == cap
        # A hit at the cap must not flush (the guard sits on the miss
        # path only).
        array.set_index(0)
        assert len(array._index_cache) == cap
        # The first *miss* at the cap clears wholesale, then re-seeds.
        array.set_index(cap)
        assert array._index_cache == {cap: array._hash(cap)}

    def test_position_cache_flushes_exactly_at_cap(self):
        array = SkewAssociativeArray(64, 4, seed=29)
        cap = array._position_cache_cap
        for addr in range(cap):
            array.positions(addr)
        assert len(array._position_cache) == cap
        array.positions(0)
        assert len(array._position_cache) == cap
        array.positions(cap)
        assert len(array._position_cache) == 1
        assert cap in array._position_cache


class TestPositionsInto:
    """``positions_into`` must agree with ``positions`` on every path:
    memo hit, memo miss, and across the wholesale flush."""

    def _check(self, array, addrs):
        buf = [0] * array.num_ways
        for addr in addrs:
            n = array.positions_into(addr, buf)
            assert tuple(buf[:n]) == array.positions(addr)

    def test_set_assoc_agrees(self):
        array = SetAssociativeArray(256, 4, hashed=True, seed=31)
        self._check(array, range(300))

    def test_skew_cold_and_warm_paths_agree(self):
        array = SkewAssociativeArray(256, 4, seed=37)
        buf = [0] * 4
        for addr in range(100):
            # Cold: positions_into computes without memoising...
            n = array.positions_into(addr, buf)
            cold = tuple(buf[:n])
            assert addr not in array._position_cache
            # ...then positions memoises, and the warm path agrees.
            assert array.positions(addr) == cold
            n = array.positions_into(addr, buf)
            assert tuple(buf[:n]) == cold

    def test_zcache_agrees(self):
        array = ZCacheArray(256, 4, candidates_per_miss=16, seed=41)
        self._check(array, range(300))

    def test_agrees_across_the_flush(self):
        array = SkewAssociativeArray(64, 4, seed=43)
        cap = array._position_cache_cap
        probes = (0, 1, cap - 1, cap, cap + 1)
        buf = [0] * 4
        before = {}
        for addr in probes:
            n = array.positions_into(addr, buf)
            before[addr] = tuple(buf[:n])
        for addr in range(cap + 1):  # drives the memo through a flush
            array.positions(addr)
        assert len(array._position_cache) == 1
        for addr in probes:
            n = array.positions_into(addr, buf)
            assert tuple(buf[:n]) == before[addr]
            assert array.positions(addr) == before[addr]

    def test_buffer_tail_untouched(self):
        array = SetAssociativeArray(256, 4, hashed=True, seed=47)
        buf = [0] * 4 + [-7, -7]
        n = array.positions_into(5, buf)
        assert n == 4
        assert buf[4:] == [-7, -7]
