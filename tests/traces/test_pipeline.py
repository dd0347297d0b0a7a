"""Batched trace pipeline: chunk/generator parity and store layers.

The contract under test: for every one of the 29 synthetic apps, the
chunk pipeline is a pure re-encoding of the generator stream -- the
``(gap, addr)`` sequence read through chunks is *exactly* the
generator output for the same base and seed, across chunk boundaries,
phase boundaries, LRU evictions and disk round-trips.
"""

from __future__ import annotations

import json
from array import array

import pytest

from repro.traces import (
    TraceSpec,
    TraceStore,
    compile_chunk,
    generator_fingerprint,
)
from repro.workloads import APPS


def _pairs_via_chunks(store: TraceStore, spec: TraceSpec, count: int):
    """Read ``count`` pairs through the store's chunk cursor."""
    pairs = []
    index = 0
    while len(pairs) < count:
        buf = store.chunk_list(spec, index)
        for pos in range(0, len(buf), 2):
            pairs.append((buf[pos], buf[pos + 1]))
            if len(pairs) == count:
                break
        index += 1
    return pairs


def _pairs_via_generator(spec: TraceSpec, count: int):
    gen = spec.generator()
    return [next(gen) for _ in range(count)]


@pytest.mark.parametrize("name", sorted(APPS))
def test_chunk_pipeline_matches_generator_for_every_app(name):
    """First N pairs via chunks == generator output, same seed, with
    chunks small enough that every app crosses chunk boundaries."""
    app = APPS[name]
    store = TraceStore(chunk_pairs=256, max_chunks=64)
    spec = app.trace_spec(base=3 << 44, seed=11)
    count = 1_000
    assert _pairs_via_chunks(store, spec, count) == _pairs_via_generator(
        spec, count
    )


@pytest.mark.parametrize(
    "name", [a.name for a in APPS.values() if a.kind == "phased-loop"]
)
def test_phase_boundaries_preserved(name):
    """Phased apps must switch phases at exactly the same access as
    the generator path, including the resume of phase-local state."""
    app = APPS[name]
    store = TraceStore(chunk_pairs=4_096, max_chunks=64)
    spec = app.trace_spec(base=1 << 44, seed=5)
    count = 2 * app.phase_accesses + 500  # spans a full A/B/A cycle
    assert _pairs_via_chunks(store, spec, count) == _pairs_via_generator(
        spec, count
    )


def test_chunks_are_flat_int64_buffers():
    spec = APPS["mcf"].trace_spec(base=0, seed=1)
    store = TraceStore(chunk_pairs=128)
    chunk = store.get_chunk(spec, 0)
    assert isinstance(chunk, array) and chunk.typecode == "q"
    assert len(chunk) == 256
    gen = spec.generator()
    for pos in range(0, 256, 2):
        gap, addr = next(gen)
        assert (chunk[pos], chunk[pos + 1]) == (gap, addr)


def test_compile_chunk_rejects_finite_streams():
    with pytest.raises(ValueError, match="infinite"):
        compile_chunk(iter([(1, 2), (3, 4)]), 8)


def test_random_chunk_access_after_eviction_is_consistent():
    """A request behind an evicted producer restarts the generator and
    still produces identical chunks."""
    spec = APPS["soplex"].trace_spec(base=0, seed=7)
    store = TraceStore(chunk_pairs=64, max_chunks=2)  # aggressive LRU
    third = list(store.get_chunk(spec, 3))
    first = list(store.get_chunk(spec, 0))  # behind the producer: recompile
    again = list(store.get_chunk(spec, 3))
    assert again == third
    fresh = TraceStore(chunk_pairs=64)
    assert list(fresh.get_chunk(spec, 0)) == first
    assert store.evictions > 0


def test_retain_drops_other_traces_and_recompiles_identically():
    """``retain`` drops every other trace's chunks and producer and
    keeps the listed ones; a dropped trace read again is recompiled
    from item zero, bitwise-identical."""
    kept = APPS["mcf"].trace_spec(base=0, seed=1)
    dropped = APPS["soplex"].trace_spec(base=1 << 44, seed=2)
    store = TraceStore(chunk_pairs=64)
    for spec in (kept, dropped):
        for index in range(3):
            store.get_chunk(spec, index)
    before = [list(store.get_chunk(dropped, index)) for index in range(3)]
    kept_key, dropped_key = store.key_of(kept), store.key_of(dropped)

    assert store.retain({kept_key}) == 3
    assert store.retired == 3
    assert {key for key, _ in store._chunks} == {kept_key}
    assert set(store._producers) == {kept_key}

    compiles, hits = store.compiles, store.mem_hits
    for index in range(3):
        store.get_chunk(kept, index)
    assert (store.compiles, store.mem_hits) == (compiles, hits + 3)
    assert list(store.get_chunk(dropped, 2)) == before[2]
    assert store.compiles == compiles + 3  # its producer went too
    assert [list(store.get_chunk(dropped, i)) for i in range(3)] == before
    assert store.retain({kept_key, dropped_key}) == 0
    assert store.counters()["retired"] == 3


def test_lru_bounds_memory():
    spec = APPS["mcf"].trace_spec(base=0, seed=2)
    store = TraceStore(chunk_pairs=32, max_chunks=3)
    for index in range(8):
        store.get_chunk(spec, index)
    assert len(store._chunks) <= 3
    assert store.evictions == 5


def test_default_caps_follow_byte_budgets():
    """The default caps are byte budgets, so the chunk size does not
    change how much memory they bound."""
    from repro.traces import store as store_mod
    from repro.traces.chunks import DEFAULT_CHUNK_PAIRS, chunk_nbytes

    for chunk_pairs in (64, DEFAULT_CHUNK_PAIRS, 65_536):
        store = TraceStore(chunk_pairs=chunk_pairs)
        nbytes = chunk_nbytes(chunk_pairs)
        assert store.max_chunks * nbytes == store_mod.MEM_BUDGET_BYTES == 128 << 20
        assert store.shm_max_chunks * nbytes == 64 << 20


@pytest.mark.parametrize("kwargs", [{"chunk_pairs": 0}, {"max_chunks": 0}])
def test_explicit_zero_is_rejected_not_defaulted(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        TraceStore(**kwargs)


def test_key_memo_is_bounded(monkeypatch):
    """The spec->key memo flushes instead of growing forever (the
    experiment daemon's workers are resident processes), and a flushed
    memo recomputes identical keys."""
    from repro.traces import store as store_mod

    monkeypatch.setattr(store_mod, "MAX_KEY_MEMO", 4)
    store = TraceStore(chunk_pairs=32)
    app = APPS["mcf"]
    specs = [app.trace_spec(base=0, seed=seed) for seed in range(10)]
    keys = [store.key_of(spec) for spec in specs]
    assert len(store._keys) <= 4
    assert [store.key_of(spec) for spec in specs] == keys


def test_key_covers_identity_and_generator_source():
    app = APPS["gcc"]
    spec = app.trace_spec(base=1 << 44, seed=3)
    same = app.trace_spec(base=1 << 44, seed=3)
    assert spec.key(64) == same.key(64)
    different = [
        app.trace_spec(base=1 << 44, seed=4).key(64),
        app.trace_spec(base=2 << 44, seed=3).key(64),
        spec.key(128),
        APPS["bzip2"].trace_spec(base=1 << 44, seed=3).key(64),
    ]
    assert spec.key(64) not in different
    assert len(set(different)) == len(different)
    # The generator-source fingerprint is folded into the key.
    assert generator_fingerprint("zipf") != generator_fingerprint("loop")


@pytest.mark.parametrize("kind", ["zipf", "table-shared"])
def test_fingerprint_covers_zipf_table_helpers(kind, monkeypatch):
    """The shared Zipf table helpers define the stream as much as the
    generator bodies do: editing one must change the trace key."""
    import inspect

    from repro.traces import spec as spec_mod
    from repro.workloads import generators

    helpers = [generators.zipf_cdf, generators.zipf_guide, generators._permutation]
    if kind == "table-shared":
        helpers.append(generators.shared_table)
    sources = spec_mod._kind_sources(kind)
    assert all(helper in sources for helper in helpers)
    before = generator_fingerprint(kind)
    real_getsource = inspect.getsource
    for helper in helpers:

        def edited(fn, helper=helper):
            return real_getsource(fn) + ("# edited\n" if fn is helper else "")

        monkeypatch.setattr(spec_mod, "_fingerprint_cache", {})
        monkeypatch.setattr(inspect, "getsource", edited)
        assert generator_fingerprint(kind) != before, helper.__name__


def test_disk_layer_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    spec = APPS["lbm"].trace_spec(base=0, seed=9)
    writer = TraceStore(chunk_pairs=64)
    compiled = list(writer.get_chunk(spec, 1))
    assert writer.bytes_written > 0
    reader = TraceStore(chunk_pairs=64)  # fresh store: memory is cold
    assert list(reader.get_chunk(spec, 1)) == compiled
    assert reader.disk_hits == 1
    assert reader.compiles == 0


def test_disk_meta_and_list_and_purge(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    store = TraceStore(chunk_pairs=64)
    store.get_chunk(APPS["milc"].trace_spec(base=0, seed=1), 0)
    store.get_chunk(APPS["astar"].trace_spec(base=1 << 44, seed=1), 0)
    rows = TraceStore.list_disk()
    assert {row["name"] for row in rows} == {"milc", "astar"}
    for row in rows:
        assert row["chunks"] == 1
        assert row["bytes"] == 64 * 2 * 8
    meta_files = list((tmp_path / "traces").rglob("meta.json"))
    assert len(meta_files) == 2
    meta = json.loads(meta_files[0].read_text())
    assert {"name", "kind", "params", "base", "seed", "chunk_pairs"} <= set(meta)
    assert TraceStore.purge_disk() == 2
    assert TraceStore.list_disk() == []


def test_meta_records_byte_order(tmp_path, monkeypatch):
    import sys

    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    store = TraceStore(chunk_pairs=64)
    store.get_chunk(APPS["mcf"].trace_spec(base=0, seed=1), 0)
    meta = json.loads(next((tmp_path / "traces").rglob("meta.json")).read_text())
    assert meta["byte_order"] == sys.byteorder


def test_cross_endian_cache_is_refused(tmp_path, monkeypatch):
    """Chunk files are native-order; a cache directory written on a
    host of the other endianness must fail loudly on load *and* on
    store, never deserialize byte-swapped traces."""
    import sys

    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    spec = APPS["lbm"].trace_spec(base=0, seed=9)
    writer = TraceStore(chunk_pairs=64)
    writer.get_chunk(spec, 0)

    meta_path = next((tmp_path / "traces").rglob("meta.json"))
    meta = json.loads(meta_path.read_text())
    foreign = "big" if sys.byteorder == "little" else "little"
    meta["byte_order"] = foreign
    meta_path.write_text(json.dumps(meta))

    reader = TraceStore(chunk_pairs=64)
    with pytest.raises(RuntimeError, match=f"{foreign}-endian"):
        reader.get_chunk(spec, 0)
    with pytest.raises(RuntimeError, match=f"{foreign}-endian"):
        reader.get_chunk(spec, 1)  # the write path refuses too

    # Legacy directories (meta without the field) stay loadable: they
    # were written by this host's lineage and are native by
    # construction.
    del meta["byte_order"]
    meta_path.write_text(json.dumps(meta))
    legacy = TraceStore(chunk_pairs=64)
    assert list(legacy.get_chunk(spec, 0)) == list(writer.get_chunk(spec, 0))
    assert legacy.disk_hits == 1


def test_torn_meta_is_repaired_on_next_store(tmp_path, monkeypatch):
    """A ``meta.json`` cut short is rewritten (atomically) by the next
    store into that trace, so listings name the trace again."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    spec = APPS["mcf"].trace_spec(base=0, seed=1)
    TraceStore(chunk_pairs=64).get_chunk(spec, 0)
    meta_path = next((tmp_path / "traces").rglob("meta.json"))
    meta_path.write_text('{"name": "mc')
    assert "name" not in TraceStore.list_disk()[0]

    TraceStore(chunk_pairs=64).get_chunk(spec, 1)  # stores chunk 1
    meta = json.loads(meta_path.read_text())
    assert (meta["name"], meta["kind"], meta["seed"]) == ("mcf", "scan", 1)
    (row,) = TraceStore.list_disk()
    assert (row["name"], row["seed"], row["chunks"]) == ("mcf", 1, 2)
    assert not list((tmp_path / "traces").rglob(".*"))  # no temp files left


def test_disk_layer_off_without_env(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    store = TraceStore(chunk_pairs=64)
    store.get_chunk(APPS["mcf"].trace_spec(base=0, seed=0), 0)
    assert store.bytes_written == 0
    assert TraceStore.disk_dir() is None


def test_truncated_disk_chunk_is_dropped(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    spec = APPS["mcf"].trace_spec(base=0, seed=0)
    writer = TraceStore(chunk_pairs=64)
    good = list(writer.get_chunk(spec, 0))
    chunk_file = next((tmp_path / "traces").rglob("*.i64"))
    chunk_file.write_bytes(chunk_file.read_bytes()[:100])  # torn write
    reader = TraceStore(chunk_pairs=64)
    assert list(reader.get_chunk(spec, 0)) == good  # recompiled
    assert reader.disk_hits == 0
    assert reader.compiles == 1


def test_trace_spec_is_a_trace_factory():
    """Specs double as zero-arg factories (the reference event loop
    and any legacy caller just call them)."""
    spec = APPS["perlbench"].trace_spec(base=0, seed=0)
    gen = spec()
    assert next(gen) == next(spec.generator())


def test_mix_factories_are_specs():
    from repro.workloads import make_mix

    mix = make_mix("sftn", 1)
    factories = mix.trace_factories(seed=0)
    assert all(isinstance(f, TraceSpec) for f in factories)
    bases = {f.base for f in factories}
    assert len(bases) == mix.num_cores  # disjoint address spaces
