"""One shared int per slot, and chunks read in place.

After a run that fills a 256 KiB L2, every slot an array keeps in a
Python container -- the ``_slot_of`` values, the zcache's
``_pos_by_slot`` tuples, PIPP's chains -- must be the slot table's own
int object, on the batch lane and on the object lane alike; and the
event loop's chunk cursor must read the trace store's buffers
themselves (``array('q')`` or a mapped ``memoryview``), never a list
copy.
"""

from __future__ import annotations

import sys
from array import array

import pytest

from repro.arrays.base import slot_ints
from repro.harness.runner import run_mix
from repro.sim import small_system
from repro.traces.store import TraceStore
from repro.workloads import make_mix

SCHEMES = ("vantage-z4/52", "lru-sa16", "waypart-sa16", "pipp-sa16")


def _all_table_ints(slots, table) -> bool:
    return all(slot is table[slot] for slot in slots)


@pytest.mark.parametrize("fused", ["1", "0"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_filled_run_keeps_table_ints_and_reads_chunks_in_place(
    scheme, fused, monkeypatch
):
    monkeypatch.setenv("REPRO_FUSED", fused)
    served = []
    cursor = []
    real_chunk_list = TraceStore.chunk_list

    def chunk_list(store, spec, index):
        chunk = real_chunk_list(store, spec, index)
        # The chunk the store hands out is the one it keeps.
        assert store._chunks[(store.key_of(spec), index)] is chunk
        served.append(chunk)
        if not cursor:
            # The caller is the event loop's refill, whose ``bufs`` is
            # the cursor: the buffer each core reads from.
            cursor.append(sys._getframe(1).f_locals["bufs"])
        return chunk

    monkeypatch.setattr(TraceStore, "chunk_list", chunk_list)
    config = small_system(l2_bytes=256 * 1024, epoch_cycles=50_000)
    run = run_mix(make_mix("sftn", 1), scheme, config, 150_000)
    assert (run.system.batch_calls > 0) == (fused == "1")
    assert sum(run.cache.stats.evictions) > 0

    array_ = run.cache.array
    table = slot_ints(0)
    assert len(table) >= array_.num_lines
    assert _all_table_ints(array_._slot_of.values(), table)
    if scheme == "vantage-z4/52":
        assert len(array_._slot_of) == array_.num_lines
        entries = [e for e in array_._pos_by_slot if e is not None]
        assert len(entries) == array_.num_lines
        assert all(_all_table_ints(entry, table) for entry in entries)
    if scheme == "pipp-sa16":
        assert all(_all_table_ints(chain, table) for chain in run.cache._chains)

    (bufs,) = cursor
    assert len(bufs) == config.num_cores
    for buf in bufs:
        assert type(buf) in (array, memoryview), type(buf)
        assert any(buf is chunk for chunk in served)


def test_table_grows_and_keeps_its_objects():
    table = slot_ints(8)
    assert table is slot_ints(0)
    first = table[7]
    grown = slot_ints(len(table) + 300)
    assert grown is table and grown[7] is first
    assert grown == list(range(len(grown)))
