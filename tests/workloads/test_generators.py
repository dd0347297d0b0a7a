"""Tests for the synthetic address-stream generators."""

import bisect
import hashlib
import math
import statistics
import struct
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    SharedRegionSpec,
    loop_stream,
    make_app,
    phased_stream,
    scan_stream,
    zipf_stream,
)


def take(gen, n):
    return [next(gen) for _ in range(n)]


class TestZipf:
    def test_deterministic_by_seed(self):
        a = take(zipf_stream(1000, 1.0, 20, base=0, seed=5), 100)
        b = take(zipf_stream(1000, 1.0, 20, base=0, seed=5), 100)
        assert a == b

    def test_addresses_within_working_set(self):
        pairs = take(zipf_stream(500, 0.8, 10, base=1 << 20, seed=1), 2000)
        for _, addr in pairs:
            assert 1 << 20 <= addr < (1 << 20) + 500

    def test_gap_mean(self):
        pairs = take(zipf_stream(100, 1.0, 50, base=0, seed=2), 5000)
        mean = statistics.mean(g for g, _ in pairs)
        assert 40 < mean < 60

    def test_popularity_skew(self):
        """Higher alpha concentrates accesses on fewer lines."""

        def top_share(alpha):
            pairs = take(zipf_stream(1000, alpha, 1, base=0, seed=3), 8000)
            counts = {}
            for _, a in pairs:
                counts[a] = counts.get(a, 0) + 1
            top = sorted(counts.values(), reverse=True)[:10]
            return sum(top) / 8000

        assert top_share(1.2) > top_share(0.5)

    def test_rejects_empty_working_set(self):
        with pytest.raises(ValueError):
            next(zipf_stream(0, 1.0, 10, 0, 0))


class TestLoop:
    def test_sequential_cycle(self):
        pairs = take(loop_stream(5, 0, base=100, seed=0), 12)
        addrs = [a for _, a in pairs]
        assert addrs == [100, 101, 102, 103, 104] * 2 + [100, 101]

    def test_scan_is_a_long_loop(self):
        pairs = take(scan_stream(10_000, 5, base=0, seed=1), 100)
        addrs = [a for _, a in pairs]
        assert addrs == list(range(100))


class TestPhased:
    def test_alternates_phases(self):
        from functools import partial

        phase_a = partial(loop_stream, 4, 0)
        phase_b = partial(loop_stream, 4, 0)
        gen = phased_stream(phase_a, phase_b, phase_accesses=8, base=0, seed=0)
        pairs = take(gen, 24)
        addrs = [a for _, a in pairs]
        # First 8 from base region, next 8 from the offset region.
        assert all(a < (1 << 30) for a in addrs[:8])
        assert all(a >= (1 << 30) for a in addrs[8:16])
        assert all(a < (1 << 30) for a in addrs[16:24])

    def test_phases_resume_where_they_left_off(self):
        from functools import partial

        phase_a = partial(loop_stream, 10, 0)
        phase_b = partial(loop_stream, 10, 0)
        gen = phased_stream(phase_a, phase_b, phase_accesses=4, base=0, seed=0)
        pairs = take(gen, 16)
        a_addrs = [a for _, a in pairs[:4]] + [a for _, a in pairs[8:12]]
        assert a_addrs == [0, 1, 2, 3, 4, 5, 6, 7]


#: SHA-256 of the first ``PIN_PAIRS`` ``(gap, addr)`` pairs, packed as
#: little-endian int64s, of three pinned streams at seeds 0 and 1.
#: Recorded from the list-based generators; any change to the draws,
#: their order or the rank-to-line mapping shows up here.
PIN_PAIRS = 20_000
PIN_SHARED = SharedRegionSpec(kind="shared-table", lines=4096, fraction=0.3)
PINNED_DIGESTS = {
    ("zipf-insensitive", 0): "d5226e5c14d5c29836aa087f0820001fb563bfbef475d9e797e7d0d65bfe4384",
    ("zipf-insensitive", 1): "458953397b38b83044fda1b1b803e98b10f8a1876c2a63d9552bddd29473156d",
    ("zipf-friendly", 0): "3009c8044b6da8cbc13d8a7c84ff8e142c37fe4f1d6f126dd60a46e5099f97a3",
    ("zipf-friendly", 1): "a3f9093c0d7b91a4cee91a33e766794b4ecc107d1ac26d1f42ad5f7d0b2f0f20",
    ("table-shared", 0): "6ac09c6ca27caa400a25ac6eb1530d9e8a63fe8194aa15902cd5b16e4d42d40d",
    ("table-shared", 1): "3a95f45a615f2e49424c2cfa69be752cf3a591bdf6b6824692afd4a85495a8f6",
}


def pinned_spec(case, seed):
    if case == "zipf-insensitive":  # 384 lines
        return make_app("perlbench").trace_spec(1 << 44, seed)
    if case == "zipf-friendly":  # 40,960 lines
        return make_app("cactusADM").trace_spec(2 << 44, seed)
    return make_app("cactusADM").trace_spec(
        2 << 44, seed, shared=PIN_SHARED, core=2, num_cores=4, shared_base=4 << 44
    )


def stream_digest(gen, n=PIN_PAIRS):
    h = hashlib.sha256()
    for gap, addr in islice(gen, n):
        h.update(struct.pack("<qq", gap, addr))
    return h.hexdigest()


@pytest.mark.parametrize("case,seed", sorted(PINNED_DIGESTS))
def test_pinned_stream_digest(case, seed):
    spec = pinned_spec(case, seed)
    assert spec.kind == ("table-shared" if case == "table-shared" else "zipf")
    assert stream_digest(spec.generator()) == PINNED_DIGESTS[case, seed]


class TestZipfTables:
    def test_shared_and_read_only(self):
        from repro.workloads import generators

        cumulative = generators.zipf_cdf(1000, 0.75)
        assert generators.zipf_cdf(1000, 0.75) is cumulative
        assert len(cumulative) == 1000
        with pytest.raises(TypeError):
            cumulative[0] = 0.0
        table = generators.shared_table(512, 0.9, 7)
        assert generators.shared_table(512, 0.9, 7) is table
        assert table[0] is generators.zipf_cdf(512, 0.9)
        with pytest.raises(TypeError):
            table[1][0] = 1
        assert sorted(table[1]) == list(range(512))
        guide, scale = generators.zipf_guide(1000, 0.75)
        assert generators.zipf_guide(1000, 0.75)[0] is guide
        assert scale == 1000 / cumulative[-1]
        with pytest.raises(TypeError):
            guide[0] = 1

    def test_memo_bounded_and_streams_unchanged(self):
        from repro.workloads import generators

        cap = generators.MAX_ZIPF_TABLES
        case = ("table-shared", 0)
        assert stream_digest(pinned_spec(*case).generator()) == PINNED_DIGESTS[case]
        # Fill both memos past their cap with tables nothing else uses,
        # evicting the pinned stream's tables on the way.
        for lines in range(1, cap + 10):
            generators.zipf_cdf(lines, 0.5)
            generators.zipf_guide(lines, 0.5)
            generators.shared_table(lines, 0.5, 99)
            assert len(generators._cdf_memo) <= cap
            assert len(generators._guide_memo) <= cap
            assert len(generators._shared_memo) <= cap
        assert len(generators._cdf_memo) == cap
        assert len(generators._guide_memo) == cap
        assert (40_960, 0.75) not in generators._cdf_memo
        for key in sorted(PINNED_DIGESTS):
            assert stream_digest(pinned_spec(*key).generator()) == PINNED_DIGESTS[key]


def _guide_rank(lines, alpha, x):
    """The rank search ``zipf_stream`` and ``shared_table_stream``
    inline (see ``generators.zipf_guide``)."""
    from repro.workloads import generators

    cumulative = generators.zipf_cdf(lines, alpha)
    guide, scale = generators.zipf_guide(lines, alpha)
    rank = guide[int(x * scale)]
    while cumulative[rank] < x:
        rank += 1
    return rank


class TestZipfGuide:
    """The guide-table search returns exactly ``bisect_left`` over the
    CDF, so every Zipf draw picks the rank it always picked."""

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.integers(min_value=1, max_value=5_000),
        alpha=st.floats(min_value=0.05, max_value=2.5),
        u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    def test_rank_equals_bisect(self, lines, alpha, u):
        from repro.workloads import generators

        cumulative = generators.zipf_cdf(lines, alpha)
        x = u * cumulative[-1]
        assert _guide_rank(lines, alpha, x) == bisect.bisect_left(cumulative, x)

    @pytest.mark.parametrize(
        "lines,alpha", [(1, 1.0), (7, 0.3), (1000, 0.75), (40_960, 1.1)]
    )
    def test_edges_and_exact_cdf_values(self, lines, alpha):
        from repro.workloads import generators

        cumulative = generators.zipf_cdf(lines, alpha)
        total = cumulative[-1]
        points = [0.0, math.nextafter(total, 0.0), total]
        points += list(cumulative)
        points += [math.nextafter(c, 0.0) for c in cumulative]
        for x in points:
            assert _guide_rank(lines, alpha, x) == bisect.bisect_left(cumulative, x), x
