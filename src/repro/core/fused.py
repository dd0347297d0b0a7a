"""Fused access kernels for the Vantage controllers.

One closure per cache instance fuses hit detection, the promotion /
timestamp-touch hit path and the miss path's walk + demotion scan +
install bookkeeping, with every per-line column (tags, ``part_of``,
``line_ts``, RRPVs) and per-partition register captured as closure
cells.  The structure mirrors ``VantageCache.access``/``_hit``/
``_miss``/``_finish_install`` exactly; ``_replacement_index`` and
``_zmiss`` (already single-pass kernels) stay as bound calls, so every
demotion, setpoint adjustment and eviction decision runs the same
code in both paths.

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
    register_fused_kernel,
    scheduler_cells,
)


@register_fused_kernel(VantageCache)
def build_vantage_kernel(cache: VantageCache):
    return _vantage_kernel(cache, rrpv=None)


@register_fused_kernel(VantageDRRIPCache)
def build_vantage_drrip_kernel(cache: VantageDRRIPCache):
    return _vantage_kernel(cache, rrpv=cache.rrpv)


def _vantage_kernel(cache, rrpv):
    """Shared Vantage kernel; ``rrpv`` is the extra per-line column of
    the DRRIP variant (``None`` for plain Vantage, whose only per-line
    base-policy state is ``line_ts``)."""
    array = cache.array
    if type(array).candidate_slots is CacheArray.candidate_slots:
        # No fast-path walk (e.g. random-candidates arrays): the
        # object path's Candidate-list fallback is not worth fusing.
        return None

    lookup = array._slot_of.get
    slot_of = array._slot_of
    num_lines = array.num_lines
    candidate_slots = array.candidate_slots
    install_walk = array.install_walk
    moves_buf = array._install_moves

    # Zcache specialisation: while the array is not full, most walks
    # stop at an empty slot among the W first-level positions (95% of
    # cold-fill installs on ``sftn1`` at 120k instructions relocate
    # nothing).  For that case the whole walk + chain derivation +
    # install collapses to a W-slot scan: no visited stamps (nothing
    # expands), no level bounds, no relocation chain.  Deeper walks
    # and replacements delegate to candidate_slots()/install_walk()
    # unchanged.  Exact-type check: a subclass may override the walk
    # or install protocol.
    zc = type(array) is ZCacheArray
    if zc:
        tags = array._tags
        pos_by_slot = array._pos_by_slot
        positions = array.positions
        num_sets = array.num_sets
        collect = array._collect

    part_of = cache.part_of
    line_ts = cache.line_ts
    actual = cache.actual_size
    current_ts = cache.current_ts
    access_counter = cache.access_counter
    tick_size = cache._tick_size
    tick_period = cache._tick_period
    promotions = cache.promotions
    replacement_index = cache._replacement_index
    zwalk = cache._zwalk
    # Latched like the object path's dispatch flags: True when the
    # concrete class keeps the stock hook (plain Vantage), in which
    # case the hook body is inlined below.  The DRRIP overrides are
    # themselves inlined via the rrpv column (touch, move) or kept as
    # a bound call (insert: leader voting + RNG).
    plain_insert = cache._plain_insert
    set_inserted = cache._set_inserted_line_state
    # Shared-region bookkeeping (0 = off, the default).  _shared_hit
    # stays a bound call: it only touches live cache registers (no
    # scalar here is hoisted across accesses), so the object path and
    # the kernel run the identical policy code.
    shared_code = cache._shared_code
    shared_hit = cache._shared_hit
    touched_by = cache.touched_by

    st = cache.stats
    st_acc = st.accesses
    st_hit = st.hits
    st_miss = st.misses

    def access(addr: int, part: int = 0) -> bool:
        slot = lookup(addr)
        if slot is not None:
            # --- _hit, inlined. ---
            owner = part_of[slot]
            if owner == UNMANAGED:
                cache.unmanaged_size -= 1
                part_of[slot] = part
                actual[part] += 1
                promotions[part] += 1
                if shared_code:
                    touched_by[slot] |= 1 << part
                owner = part
            elif shared_code and owner != part:
                owner = shared_hit(slot, part)
            if owner != UNMANAGED:
                # UNMANAGED only after a promote-to-shared _shared_hit
                # parked the line (stamped on the unmanaged clock);
                # otherwise stamp and tick the managed owner as always.
                line_ts[slot] = current_ts[owner]
                if rrpv is not None:
                    rrpv[slot] = 0
                # _tick(owner), inlined.
                count = access_counter[owner] + 1
                size = actual[owner]
                if size != tick_size[owner]:
                    tick_size[owner] = size
                    period = size >> 4
                    tick_period[owner] = period if period > 0 else 1
                if count >= tick_period[owner]:
                    access_counter[owner] = 0
                    current_ts[owner] = (current_ts[owner] + 1) & _TS_MASK
                else:
                    access_counter[owner] = count
            st_acc[part] += 1
            st_hit[part] += 1
            return True

        st_acc[part] += 1
        st_miss[part] += 1
        # --- _miss, inlined. ---
        if zwalk and len(slot_of) == num_lines:
            # Full zcache: the fused walk + demotion scan.
            cache._zmiss(addr, part, array)
            return False
        if zc:
            # First-level positions sit in distinct banks (no
            # duplicates); an empty one ends the walk with the victim
            # as its own landing slot -- install is a plain placement.
            first = positions(addr)
            n = 0
            landing = -1
            for slot in first:
                n += 1
                if tags[slot] < 0:
                    landing = slot
                    break
            if landing >= 0:
                if collect:
                    array.stat_walks += 1
                    array.stat_candidates += n
                    array.stat_installs += 1
                tags[landing] = addr
                slot_of[addr] = landing
                way = landing // num_sets
                pos_by_slot[landing] = first[:way] + first[way + 1 :]
                part_of[landing] = part
                if shared_code:
                    touched_by[landing] = 1 << part
                if plain_insert:
                    line_ts[landing] = current_ts[part]
                else:
                    set_inserted(landing, part, addr)
                size = actual[part] + 1
                actual[part] = size
                # _tick(part), inlined.
                count = access_counter[part] + 1
                if size != tick_size[part]:
                    tick_size[part] = size
                    period = size >> 4
                    tick_period[part] = period if period > 0 else 1
                if count >= tick_period[part]:
                    access_counter[part] = 0
                    current_ts[part] = (current_ts[part] + 1) & _TS_MASK
                else:
                    access_counter[part] = count
                return False
        slots, parents, has_empty = candidate_slots(addr)
        if has_empty:
            index = len(slots) - 1
        else:
            index = replacement_index(slots)
        landing = install_walk(addr, slots, parents, index)
        # --- _finish_install, inlined over the flat move pairs. ---
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
        part_of[landing] = part
        if shared_code:
            touched_by[landing] = 1 << part
        if plain_insert:
            line_ts[landing] = current_ts[part]
        else:
            set_inserted(landing, part, addr)
        size = actual[part] + 1
        actual[part] = size
        # _tick(part), inlined.
        count = access_counter[part] + 1
        if size != tick_size[part]:
            tick_size[part] = size
            period = size >> 4
            tick_period[part] = period if period > 0 else 1
        if count >= tick_period[part]:
            access_counter[part] = 0
            current_ts[part] = (current_ts[part] + 1) & _TS_MASK
        else:
            access_counter[part] = count
        return False

    return access


@register_batch_kernel(VantageCache)
def build_vantage_batch(cache: VantageCache, ctx):
    return _vantage_batch(cache, ctx, rrpv=None)


@register_batch_kernel(VantageDRRIPCache)
def build_vantage_drrip_batch(cache: VantageDRRIPCache, ctx):
    return _vantage_batch(cache, ctx, rrpv=cache.rrpv)


def _vantage_batch(cache, ctx, rrpv):
    """Whole-loop Vantage kernel: the fused access body above embedded
    in the event loop's scheduling walk (see
    ``PartitionedCache.build_batch_kernel`` for the protocol).  No
    setpoint/timestamp register is hoisted across accesses -- they are
    all shared with ``_zmiss`` and ``_replacement_index`` (bound
    calls), so they stay live on the cache object; only the memory
    model's counters are hoisted and flushed."""
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
    zmiss = cache._zmiss
    zwalk = cache._zwalk
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
                        if zwalk and len(slot_of) == num_lines:
                            zmiss(addr, cid, array, first)
                        else:
                            landing = -1
                            if zc:
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
                                pos_by_slot[landing] = (
                                    first[:way] + first[way + 1 :]
                                )
                            else:
                                slots, parents, has_empty = candidate_slots(
                                    addr, first
                                )
                                if has_empty:
                                    index = len(slots) - 1
                                else:
                                    index = replacement_index(slots)
                                landing = install_walk(
                                    addr, slots, parents, index, first
                                )
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
                                current_ts[cid] = (
                                    current_ts[cid] + 1
                                ) & _TS_MASK
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
