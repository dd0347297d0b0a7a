"""Batch access bodies for the Vantage controllers.

The batch kernel's scheduling loop lives once, in
``repro.partitioning.base_cache``; this module supplies only the
Vantage L2 bodies it calls per L1 miss.  ``hit`` is the promotion /
timestamp-touch hit path and ``miss`` the miss path's install
bookkeeping, with every per-line column (tags, ``part_of``,
``line_ts``, RRPVs) and per-partition register captured as closure
cells.  The bodies follow ``VantageCache.access``/``_hit``/``_miss``/
``_finish_install``.  A miss runs the array's ``candidate_slots`` walk
and ``_replacement_index`` as bound calls, so every demotion, setpoint
adjustment and eviction decision runs the same code as the object
path, then installs through ``install_walk`` and its moves buffer
instead of a ``Candidate`` and the generic ``install``.

Pinned bitwise-identical to the object path (``REPRO_FUSED=0``) by
the parity tests and the golden stats trees.

Imported for its registration side effects at the end of
``repro.core.__init__``.
"""

from __future__ import annotations

from repro.arrays.base import CacheArray
from repro.arrays.skew import SkewAssociativeArray
from repro.arrays.zcache import ZCacheArray
from repro.core.cache import _TS_MASK, UNMANAGED, VantageCache
from repro.core.rrip_variant import VantageDRRIPCache
from repro.partitioning.base_cache import NO_PART, register_batch_kernel


@register_batch_kernel(VantageCache)
def build_vantage_bodies(cache: VantageCache, ctx):
    return _vantage_bodies(cache, ctx, rrpv=None)


@register_batch_kernel(VantageDRRIPCache)
def build_vantage_drrip_bodies(cache: VantageDRRIPCache, ctx):
    return _vantage_bodies(cache, ctx, rrpv=cache.rrpv)


def _vantage_bodies(cache, ctx, rrpv):
    """Vantage's ``hit``/``miss`` bodies.  Every setpoint/timestamp
    register is shared with ``_replacement_index`` (a bound call), so
    all of them stay live on the cache object."""
    array = cache.array
    if type(array).candidate_slots is CacheArray.candidate_slots:
        return None
    cols = ctx.cols
    slot_of = array._slot_of
    num_lines = array.num_lines
    candidate_slots = array.candidate_slots
    install_walk = array.install_walk
    moves_buf = array._install_moves

    zc = type(array) is ZCacheArray
    if zc:
        tags = array._tags
        pos_by_slot = array._pos_by_slot
        num_sets = array.num_sets
        walk_stats = array._collect
    # A miss hands the walk its column entry: the positions tuple of a
    # skew array or zcache (mapped through the slot table, since the
    # walk stores these ints), the set index of a set-associative
    # array (arrays without a column leave cols[cid] None).
    skew = isinstance(array, SkewAssociativeArray)
    num_ways = array.num_ways
    slot_ints = array._slot_ints

    part_of = cache.part_of
    line_ts = cache.line_ts
    actual = cache.actual_size
    current_ts = cache.current_ts
    access_counter = cache.access_counter
    tick_size = cache._tick_size
    tick_period = cache._tick_period
    promotions = cache.promotions
    replacement_index = cache._replacement_index
    plain_insert = cache._plain_insert
    set_inserted = cache._set_inserted_line_state
    shared_code = cache._shared_code
    shared_hit = cache._shared_hit
    touched_by = cache.touched_by

    def hit(slot, cid):
        owner = part_of[slot]
        if owner == UNMANAGED:
            cache.unmanaged_size -= 1
            part_of[slot] = cid
            actual[cid] += 1
            promotions[cid] += 1
            if shared_code:
                touched_by[slot] |= 1 << cid
            owner = cid
        elif shared_code and owner != cid:
            owner = shared_hit(slot, cid)
            if owner == UNMANAGED:
                # Promote-to-shared parked the line inside _shared_hit.
                return
        line_ts[slot] = current_ts[owner]
        if rrpv is not None:
            rrpv[slot] = 0
        tick_count = access_counter[owner] + 1
        size = actual[owner]
        if size != tick_size[owner]:
            tick_size[owner] = size
            period = size >> 4
            tick_period[owner] = period if period > 0 else 1
        if tick_count >= tick_period[owner]:
            access_counter[owner] = 0
            current_ts[owner] = (current_ts[owner] + 1) & _TS_MASK
        else:
            access_counter[owner] = tick_count

    def miss(addr, cid, i):
        col = cols[cid]
        if col is None:
            first = None
        elif skew:
            k = i * num_ways
            first = tuple([slot_ints[s] for s in col[k : k + num_ways]])
        else:
            first = col[i]
        landing = -1
        if zc and len(slot_of) < num_lines:
            # Cold fill: most walks end at an empty first-level
            # position, which relocates nothing.
            n = 0
            for slot in first:
                n += 1
                if tags[slot] < 0:
                    landing = slot
                    break
        if landing >= 0:
            if walk_stats:
                array.stat_walks += 1
                array.stat_candidates += n
                array.stat_installs += 1
            tags[landing] = addr
            slot_of[addr] = landing
            way = landing // num_sets
            pos_by_slot[landing] = first[:way] + first[way + 1 :]
        else:
            slots, parents, has_empty = candidate_slots(addr, first)
            if has_empty:
                index = len(slots) - 1
            else:
                index = replacement_index(slots)
            landing = install_walk(addr, slots, parents, index, first)
            if moves_buf:
                for k in range(0, len(moves_buf), 2):
                    src = moves_buf[k]
                    dst = moves_buf[k + 1]
                    part_of[dst] = part_of[src]
                    part_of[src] = NO_PART
                    line_ts[dst] = line_ts[src]
                    if rrpv is not None:
                        rrpv[dst] = rrpv[src]
                    if shared_code:
                        touched_by[dst] = touched_by[src]
                        touched_by[src] = 0
        part_of[landing] = cid
        if shared_code:
            touched_by[landing] = 1 << cid
        if plain_insert:
            line_ts[landing] = current_ts[cid]
        else:
            set_inserted(landing, cid, addr)
        size = actual[cid] + 1
        actual[cid] = size
        tick_count = access_counter[cid] + 1
        if size != tick_size[cid]:
            tick_size[cid] = size
            period = size >> 4
            tick_period[cid] = period if period > 0 else 1
        if tick_count >= tick_period[cid]:
            access_counter[cid] = 0
            current_ts[cid] = (current_ts[cid] + 1) & _TS_MASK
        else:
            access_counter[cid] = tick_count

    return hit, miss
