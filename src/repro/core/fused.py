"""Batch access kernels for the Vantage controllers.

One whole-loop kernel per run fuses the event loop's scheduling walk
with hit detection, the promotion / timestamp-touch hit path and the
miss path's install bookkeeping, with every per-line column (tags,
``part_of``, ``line_ts``, RRPVs) and per-partition register captured
as closure cells.  The access body follows
``VantageCache.access``/``_hit``/``_miss``/``_finish_install``.  A
miss runs the array's ``candidate_slots`` walk and
``_replacement_index`` as bound calls, so every demotion, setpoint
adjustment and eviction decision runs the same code as the object
path, then installs through ``install_walk`` and its moves buffer
instead of a ``Candidate`` and the generic ``install``.

Pinned bitwise-identical to the object path (``REPRO_FUSED=0``) by
the parity tests and the golden stats trees.

Imported for its registration side effects at the end of
``repro.core.__init__``.
"""

from __future__ import annotations

import heapq as _heapq

from repro.arrays.base import CacheArray
from repro.arrays.skew import SkewAssociativeArray
from repro.arrays.zcache import ZCacheArray
from repro.core.cache import _TS_MASK, UNMANAGED, VantageCache
from repro.core.rrip_variant import VantageDRRIPCache
from repro.partitioning.base_cache import (
    NO_PART,
    register_batch_kernel,
    scheduler_cells,
)


@register_batch_kernel(VantageCache)
def build_vantage_batch(cache: VantageCache, ctx):
    return _vantage_batch(cache, ctx, rrpv=None)


@register_batch_kernel(VantageDRRIPCache)
def build_vantage_drrip_batch(cache: VantageDRRIPCache, ctx):
    return _vantage_batch(cache, ctx, rrpv=cache.rrpv)


def _vantage_batch(cache, ctx, rrpv):
    """Whole-loop Vantage kernel: the access body embedded in the
    event loop's scheduling walk (see
    ``PartitionedCache.build_batch_kernel`` for the protocol).  No
    setpoint/timestamp register is hoisted across accesses -- they are
    all shared with ``_replacement_index`` (a bound call), so they stay
    live on the cache object; only the memory model's counters are
    hoisted and flushed."""
    array = cache.array
    if type(array).candidate_slots is CacheArray.candidate_slots:
        return None
    (
        hit_latency, memory, num_controllers, mem_latency, service_cycles,
        free_at, observe, sample_gets, observed, mon_accesses, mon_decides,
        l1_accesses, collect, l1_hits, num_cores, target, bufs, cols, ucols,
        positions, limits, instructions, finished_at, instructions_at_finish,
        times, heap, batched,
    ) = scheduler_cells(ctx)
    heappush = _heapq.heappush
    heappop = _heapq.heappop
    inf = float("inf")

    lookup = array._slot_of.get
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
    # skew array or zcache, the set index of a set-associative array
    # (arrays without a column leave cols[cid] None).
    skew = isinstance(array, SkewAssociativeArray)
    num_ways = array.num_ways

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

    st = cache.stats
    st_acc = st.accesses
    st_hit = st.hits
    st_miss = st.misses

    def kernel(next_service, unfinished):
        mem_requests = memory.requests
        mem_queue = memory.total_queue_cycles
        while True:
            # -- select the next core: two-minimum scan or heap pop.
            if heap is None:
                now = times[0]
                cid = 0
                second = inf
                scid = 0
                for i in range(1, num_cores):
                    ti = times[i]
                    if ti < now:
                        second = now
                        scid = cid
                        now = ti
                        cid = i
                    elif ti < second:
                        second = ti
                        scid = i
            else:
                now, cid = heappop(heap)
                head = heap[0]
                second = head[0]
                scid = head[1]
            if not batched[cid]:
                if heap is not None:
                    heappush(heap, (now, cid))
                reason = 4
                break
            pos = positions[cid]
            limit = limits[cid]
            buf = bufs[cid]
            col = cols[cid]
            count = instructions[cid]
            fin = finished_at[cid] is not None
            l1a = l1_accesses[cid] if l1_accesses is not None else None
            if sample_gets is not None:
                sget = sample_gets[cid]
                macc = mon_accesses[cid]
                mdecide = mon_decides[cid]
                ucol = ucols[cid]
            else:
                sget = None
            reason = 0
            while True:
                if now >= next_service:
                    reason = 1
                    break
                if pos >= limit:
                    reason = 2
                    break
                gap = buf[pos]
                addr = buf[pos + 1]
                pos += 2
                count += gap + 1
                t = now + gap + 1
                if l1a is not None and l1a(addr):
                    # L1 hit: fully pipelined, no stall.
                    if collect:
                        l1_hits[cid] += 1
                else:
                    if sget is not None:
                        decision = sget(addr, -1)
                        if decision is not None:
                            # First touch (-1): decide from the column.
                            observed[cid] += 1
                            if decision != -1 or (
                                mdecide(addr, ucol[(pos >> 1) - 1]) is not None
                            ):
                                macc(addr)
                    elif observe is not None:
                        observe(cid, addr)
                    slot = lookup(addr)
                    if slot is not None:
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
                        if owner != UNMANAGED:
                            # UNMANAGED only after promote-to-shared
                            # parked the line inside _shared_hit.
                            line_ts[slot] = current_ts[owner]
                            if rrpv is not None:
                                rrpv[slot] = 0
                            tick_count = access_counter[owner] + 1
                            size = actual[owner]
                            if size != tick_size[owner]:
                                tick_size[owner] = size
                                period = size >> 4
                                tick_period[owner] = (
                                    period if period > 0 else 1
                                )
                            if tick_count >= tick_period[owner]:
                                access_counter[owner] = 0
                                current_ts[owner] = (
                                    current_ts[owner] + 1
                                ) & _TS_MASK
                            else:
                                access_counter[owner] = tick_count
                        st_acc[cid] += 1
                        st_hit[cid] += 1
                        t += hit_latency
                    else:
                        st_acc[cid] += 1
                        st_miss[cid] += 1
                        if col is None:
                            first = None
                        elif skew:
                            k = ((pos >> 1) - 1) * num_ways
                            first = tuple(col[k : k + num_ways])
                        else:
                            first = col[(pos >> 1) - 1]
                        landing = -1
                        if zc and len(slot_of) < num_lines:
                            # Cold fill: most walks end at an empty
                            # first-level position, which relocates
                            # nothing.
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
                        # MemoryModel.request, inlined.
                        ctrl = addr % num_controllers
                        f = free_at[ctrl]
                        start = f if f > t else t
                        free_at[ctrl] = start + service_cycles
                        queue = start - t
                        mem_queue += queue
                        mem_requests += 1
                        t += hit_latency + (queue + mem_latency)
                if not fin and count >= target:
                    fin = True
                    finished_at[cid] = t
                    instructions_at_finish[cid] = count
                    unfinished -= 1
                    if not unfinished:
                        reason = 3
                        break
                if t < second or (t == second and cid < scid):
                    now = t
                    continue
                break
            positions[cid] = pos
            instructions[cid] = count
            if reason == 0 or reason == 3:
                if heap is None:
                    times[cid] = t
                else:
                    heappush(heap, (t, cid))
                if reason == 0:
                    continue
            elif heap is None:
                times[cid] = now
            else:
                heappush(heap, (now, cid))
            break
        memory.requests = mem_requests
        memory.total_queue_cycles = mem_queue
        return now, unfinished, reason, cid

    return kernel
