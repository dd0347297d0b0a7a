"""Batch access kernels for the non-Vantage cache front-ends.

Each builder returns a kernel that runs the *whole* multi-core event
loop -- core selection (two-minimum scan or heap), chunk cursors,
timing, L1 filtering, policy observation, the cache access body and
finish bookkeeping -- in one Python frame, returning only at
boundaries the event loop itself must handle (see
``PartitionedCache.build_batch_kernel`` for the protocol).  The access
body fuses the hit detection, policy update, victim selection and
install bookkeeping of one (array geometry, replacement policy) pair:
no ``Candidate`` construction, no per-access method dispatch through
the ``PartitionedCache``/``ReplacementPolicy`` seams, all hot state
(tag column, policy state column, owner column, stats counters)
captured as closure cells, and the policy tick registers and the
memory-model counters hoisted into frame locals and flushed before
every return.

Behaviour is pinned bitwise-identical to the object-oriented access
methods -- the same stats counters, the same RNG draws, the same
telemetry bumps -- which ``REPRO_FUSED=0`` (running the object path)
and the parity tests enforce.  Builders return ``None`` for
combinations without a kernel; those runs keep the object path.

This module must not import ``repro.core`` (the Vantage kernels live
in that package's ``fused`` module); it is imported for its
registration side effects at the end of ``repro.partitioning``.
"""

from __future__ import annotations

import heapq as _heapq

from repro.arrays.base import CacheArray
from repro.arrays.set_assoc import SetAssociativeArray
from repro.arrays.skew import SkewAssociativeArray
from repro.partitioning.base_cache import (
    NO_PART,
    BaselineCache,
    register_batch_kernel,
    scheduler_cells,
)
from repro.partitioning.pipp import STREAM_WAYS, PIPPCache
from repro.partitioning.way_partitioning import WayPartitionedCache
from repro.replacement.base import ReplacementPolicy, SlotStatePolicy
from repro.replacement.lru import TIMESTAMP_MOD, CoarseLRUPolicy, PerfectLRUPolicy
from repro.replacement.other import LFU_MAX, LFUPolicy
from repro.replacement.rrip import RRPV_MAX, SRRIPPolicy, _RRIPBase

_TS_MASK = TIMESTAMP_MOD - 1
_INF = float("inf")
_heappush = _heapq.heappush
_heappop = _heapq.heappop


@register_batch_kernel(BaselineCache)
def build_baseline_batch(cache: BaselineCache, ctx):
    array = cache.array
    policy = cache.policy
    if type(array) is SetAssociativeArray and type(policy) is CoarseLRUPolicy:
        return _baseline_sa_lru_batch(cache, array, policy, ctx)
    if type(array).candidate_slots is CacheArray.candidate_slots:
        return None
    if type(policy).select_victim_index is ReplacementPolicy.select_victim_index:
        return None
    return _baseline_generic_batch(cache, array, policy, ctx)


def _baseline_sa_lru_batch(cache, array, policy, ctx):
    """Whole-loop kernel for BaselineCache on a set-associative array
    with coarse LRU.  The policy's tick registers (``current_ts`` /
    ``_accesses``) are cache-global and nothing outside the access
    body reads them mid-run, so they are hoisted across the whole
    kernel call."""
    (
        hit_latency, memory, num_controllers, mem_latency, service_cycles,
        free_at, observe, sample_gets, observed, mon_accesses, mon_decides,
        l1_accesses, collect, l1_hits, num_cores, target, bufs, cols, ucols,
        positions, limits, instructions, finished_at, instructions_at_finish,
        times, heap, batched,
    ) = scheduler_cells(ctx)
    heappush = _heappush
    heappop = _heappop
    inf = _INF

    lookup = array._slot_of.get
    slot_of = array._slot_of
    tags = array._tags
    set_free = array._set_free
    num_ways = array.num_ways
    state = policy.state
    granularity = policy._granularity
    part_of = cache.part_of
    sizes = cache._sizes
    # _shared_hit stays a bound call: it never touches the hoisted
    # policy tick registers, only live cache state.
    shared_code = cache._shared_code
    shared_hit = cache._shared_hit
    touched_by = cache.touched_by
    st = cache.stats
    st_acc = st.accesses
    st_hit = st.hits
    st_miss = st.misses
    st_evict = st.evictions
    walk_stats = array._collect

    def kernel(next_service, unfinished):
        cur_ts = policy.current_ts
        accs = policy._accesses
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
                        state[slot] = cur_ts
                        accs += 1
                        if accs >= granularity:
                            accs = 0
                            cur_ts = (cur_ts + 1) & _TS_MASK
                        st_acc[cid] += 1
                        st_hit[cid] += 1
                        if shared_code and part_of[slot] != cid:
                            shared_hit(slot, cid)
                        t += hit_latency
                    else:
                        st_acc[cid] += 1
                        st_miss[cid] += 1
                        si = col[(pos >> 1) - 1]
                        base = si * num_ways
                        if set_free[si]:
                            scanned = 0
                            slot = -1
                            for s in range(base, base + num_ways):
                                scanned += 1
                                if tags[s] < 0:
                                    slot = s
                                    break
                            if walk_stats:
                                array.stat_walks += 1
                                array.stat_candidates += scanned
                            tags[slot] = addr
                            slot_of[addr] = slot
                            set_free[si] -= 1
                        else:
                            if walk_stats:
                                array.stat_walks += 1
                                array.stat_candidates += num_ways
                            slot = base
                            best_age = (cur_ts - state[base]) & _TS_MASK
                            for s in range(base + 1, base + num_ways):
                                age = (cur_ts - state[s]) & _TS_MASK
                                if age > best_age:
                                    best_age = age
                                    slot = s
                            owner = part_of[slot]
                            if owner >= 0:
                                st_evict[owner] += 1
                                sizes[owner] -= 1
                            del slot_of[tags[slot]]
                            tags[slot] = addr
                            slot_of[addr] = slot
                        if walk_stats:
                            array.stat_installs += 1
                        part_of[slot] = cid
                        if shared_code:
                            touched_by[slot] = 1 << cid
                        sizes[cid] += 1
                        state[slot] = cur_ts
                        accs += 1
                        if accs >= granularity:
                            accs = 0
                            cur_ts = (cur_ts + 1) & _TS_MASK
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
        policy.current_ts = cur_ts
        policy._accesses = accs
        memory.requests = mem_requests
        memory.total_queue_cycles = mem_queue
        return now, unfinished, reason, cid

    return kernel


def _baseline_generic_batch(cache, array, policy, ctx):
    """Whole-loop kernel for BaselineCache on any fast-path array with
    any indexed policy.  The policy's tick registers are *not* hoisted:
    ``select_victim_index`` stays a bound call and may read
    ``current_ts`` mid-event (coarse LRU ages against it)."""
    (
        hit_latency, memory, num_controllers, mem_latency, service_cycles,
        free_at, observe, sample_gets, observed, mon_accesses, mon_decides,
        l1_accesses, collect, l1_hits, num_cores, target, bufs, cols, ucols,
        positions, limits, instructions, finished_at, instructions_at_finish,
        times, heap, batched,
    ) = scheduler_cells(ctx)
    heappush = _heappush
    heappop = _heappop
    inf = _INF

    lookup = array._slot_of.get
    candidate_slots = array.candidate_slots
    install_walk = array.install_walk
    moves_buf = array._install_moves
    # A miss hands the walk its column entry: the positions tuple of a
    # skew array or zcache, the set index of a set-associative array
    # (arrays without a column leave cols[cid] None).
    skew = isinstance(array, SkewAssociativeArray)
    num_ways = array.num_ways
    state = policy.state if isinstance(policy, SlotStatePolicy) else None
    pol_cls = type(policy)
    select_index = policy.select_victim_index

    lru_hit = pol_cls is CoarseLRUPolicy
    plru_hit = pol_cls is PerfectLRUPolicy
    rrip_hit = pol_cls.on_hit is _RRIPBase.on_hit
    lfu_hit = pol_cls is LFUPolicy
    on_hit = policy.on_hit
    lru_insert = pol_cls is CoarseLRUPolicy
    plru_insert = pol_cls is PerfectLRUPolicy
    srrip_insert = pol_cls is SRRIPPolicy
    on_insert = policy.on_insert
    plain_move = pol_cls.on_move is SlotStatePolicy.on_move and state is not None
    on_move = policy.on_move

    granularity = getattr(policy, "_granularity", 1)
    part_of = cache.part_of
    sizes = cache._sizes
    shared_code = cache._shared_code
    shared_hit = cache._shared_hit
    touched_by = cache.touched_by
    st = cache.stats
    st_acc = st.accesses
    st_hit = st.hits
    st_miss = st.misses
    st_evict = st.evictions

    def kernel(next_service, unfinished):
        mem_requests = memory.requests
        mem_queue = memory.total_queue_cycles
        while True:
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
                        if lru_hit:
                            state[slot] = policy.current_ts
                            acc = policy._accesses + 1
                            if acc >= granularity:
                                policy._accesses = 0
                                policy.current_ts = (
                                    policy.current_ts + 1
                                ) & _TS_MASK
                            else:
                                policy._accesses = acc
                        elif rrip_hit:
                            state[slot] = 0
                        elif plru_hit:
                            clock = policy._clock + 1
                            policy._clock = clock
                            state[slot] = clock
                        elif lfu_hit:
                            if state[slot] < LFU_MAX:
                                state[slot] += 1
                        else:
                            on_hit(slot, cid, addr)
                        st_acc[cid] += 1
                        st_hit[cid] += 1
                        if shared_code and part_of[slot] != cid:
                            shared_hit(slot, cid)
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
                        slots, parents, has_empty = candidate_slots(addr, first)
                        if has_empty:
                            index = len(slots) - 1
                        else:
                            index = select_index(slots)
                            vslot = slots[index]
                            if shared_code:
                                touched_by[vslot] = 0
                            owner = part_of[vslot]
                            if owner >= 0:
                                st_evict[owner] += 1
                                sizes[owner] -= 1
                                part_of[vslot] = NO_PART
                        landing = install_walk(
                            addr, slots, parents, index, first
                        )
                        if moves_buf:
                            for k in range(0, len(moves_buf), 2):
                                src = moves_buf[k]
                                dst = moves_buf[k + 1]
                                if plain_move:
                                    state[dst] = state[src]
                                else:
                                    on_move(src, dst)
                                part_of[dst] = part_of[src]
                                part_of[src] = NO_PART
                                if shared_code:
                                    touched_by[dst] = touched_by[src]
                                    touched_by[src] = 0
                        part_of[landing] = cid
                        if shared_code:
                            touched_by[landing] = 1 << cid
                        sizes[cid] += 1
                        if lru_insert:
                            state[landing] = policy.current_ts
                            acc = policy._accesses + 1
                            if acc >= granularity:
                                policy._accesses = 0
                                policy.current_ts = (
                                    policy.current_ts + 1
                                ) & _TS_MASK
                            else:
                                policy._accesses = acc
                        elif srrip_insert:
                            state[landing] = RRPV_MAX - 1
                        elif plru_insert:
                            clock = policy._clock + 1
                            policy._clock = clock
                            state[landing] = clock
                        else:
                            on_insert(landing, cid, addr)
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


@register_batch_kernel(WayPartitionedCache)
def build_waypart_batch(cache: WayPartitionedCache, ctx):
    array = cache.array
    policy = cache.policy
    if type(array) is not SetAssociativeArray or type(policy) is not CoarseLRUPolicy:
        return None
    (
        hit_latency, memory, num_controllers, mem_latency, service_cycles,
        free_at, observe, sample_gets, observed, mon_accesses, mon_decides,
        l1_accesses, collect, l1_hits, num_cores, target, bufs, cols, ucols,
        positions, limits, instructions, finished_at, instructions_at_finish,
        times, heap, batched,
    ) = scheduler_cells(ctx)
    heappush = _heappush
    heappop = _heappop
    inf = _INF

    lookup = array._slot_of.get
    slot_of = array._slot_of
    tags = array._tags
    set_free = array._set_free
    num_ways = array.num_ways
    state = policy.state
    granularity = policy._granularity
    way_owner = cache._way_owner
    part_of = cache.part_of
    sizes = cache._sizes
    shared_code = cache._shared_code
    shared_hit = cache._shared_hit
    touched_by = cache.touched_by
    st = cache.stats
    st_acc = st.accesses
    st_hit = st.hits
    st_miss = st.misses
    st_evict = st.evictions
    walk_stats = array._collect

    def kernel(next_service, unfinished):
        cur_ts = policy.current_ts
        accs = policy._accesses
        mem_requests = memory.requests
        mem_queue = memory.total_queue_cycles
        while True:
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
                        state[slot] = cur_ts
                        accs += 1
                        if accs >= granularity:
                            accs = 0
                            cur_ts = (cur_ts + 1) & _TS_MASK
                        st_acc[cid] += 1
                        st_hit[cid] += 1
                        if shared_code and part_of[slot] != cid:
                            shared_hit(slot, cid)
                        t += hit_latency
                    else:
                        st_acc[cid] += 1
                        st_miss[cid] += 1
                        base = col[(pos >> 1) - 1] * num_ways
                        victim = -1
                        best_age = -1
                        empty = -1
                        for way in range(num_ways):
                            if way_owner[way] != cid:
                                continue
                            s = base + way
                            if tags[s] < 0:
                                empty = s
                                break
                            age = (cur_ts - state[s]) & _TS_MASK
                            if age > best_age:
                                best_age = age
                                victim = s
                        if empty >= 0:
                            slot = empty
                            tags[slot] = addr
                            slot_of[addr] = slot
                            set_free[base // num_ways] -= 1
                        else:
                            slot = victim
                            owner = part_of[slot]
                            if owner >= 0:
                                st_evict[owner] += 1
                                sizes[owner] -= 1
                            del slot_of[tags[slot]]
                            tags[slot] = addr
                            slot_of[addr] = slot
                        if walk_stats:
                            array.stat_installs += 1
                        part_of[slot] = cid
                        if shared_code:
                            touched_by[slot] = 1 << cid
                        sizes[cid] += 1
                        state[slot] = cur_ts
                        accs += 1
                        if accs >= granularity:
                            accs = 0
                            cur_ts = (cur_ts + 1) & _TS_MASK
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
        policy.current_ts = cur_ts
        policy._accesses = accs
        memory.requests = mem_requests
        memory.total_queue_cycles = mem_queue
        return now, unfinished, reason, cid

    return kernel


@register_batch_kernel(PIPPCache)
def build_pipp_batch(cache: PIPPCache, ctx):
    array = cache.array
    (
        hit_latency, memory, num_controllers, mem_latency, service_cycles,
        free_at, observe, sample_gets, observed, mon_accesses, mon_decides,
        l1_accesses, collect, l1_hits, num_cores, target, bufs, cols, ucols,
        positions, limits, instructions, finished_at, instructions_at_finish,
        times, heap, batched,
    ) = scheduler_cells(ctx)
    heappush = _heappush
    heappop = _heappop
    inf = _INF

    lookup = array._slot_of.get
    slot_of = array._slot_of
    tags = array._tags
    set_free = array._set_free
    num_ways = array.num_ways
    rng_random = cache._rng.random
    p_prom = cache.p_prom
    p_stream = cache.p_stream
    streaming = cache.streaming
    alloc_ways = cache._alloc_ways
    chains = cache._chains
    pos_of = cache._pos_of
    promotions = cache.promotions
    win_accesses = cache._win_accesses
    win_misses = cache._win_misses
    part_of = cache.part_of
    sizes = cache._sizes
    shared_code = cache._shared_code
    shared_hit = cache._shared_hit
    touched_by = cache.touched_by
    st = cache.stats
    st_acc = st.accesses
    st_hit = st.hits
    st_miss = st.misses
    st_evict = st.evictions
    walk_stats = array._collect

    def kernel(next_service, unfinished):
        mem_requests = memory.requests
        mem_queue = memory.total_queue_cycles
        while True:
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
                    win_accesses[cid] += 1
                    slot = lookup(addr)
                    if slot is not None:
                        st_acc[cid] += 1
                        st_hit[cid] += 1
                        if rng_random() < (
                            p_stream if streaming[cid] else p_prom
                        ):
                            promotions[cid] += 1
                            chain = chains[slot // num_ways]
                            i = pos_of[slot]
                            if i + 1 < len(chain):
                                other = chain[i + 1]
                                chain[i] = other
                                chain[i + 1] = slot
                                pos_of[other] = i
                                pos_of[slot] = i + 1
                        if shared_code and part_of[slot] != cid:
                            shared_hit(slot, cid)
                        t += hit_latency
                    else:
                        st_acc[cid] += 1
                        st_miss[cid] += 1
                        win_misses[cid] += 1
                        si = col[(pos >> 1) - 1]
                        chain = chains[si]
                        base = si * num_ways
                        if set_free[si]:
                            slot = -1
                            for s in range(base, base + num_ways):
                                if tags[s] < 0:
                                    slot = s
                                    break
                            tags[slot] = addr
                            slot_of[addr] = slot
                            set_free[si] -= 1
                        else:
                            slot = chain[0]
                            owner = part_of[slot]
                            if owner >= 0:
                                st_evict[owner] += 1
                                sizes[owner] -= 1
                            del chain[0]
                            pos_of[slot] = -1
                            for i in range(len(chain)):
                                pos_of[chain[i]] = i
                            del slot_of[tags[slot]]
                            tags[slot] = addr
                            slot_of[addr] = slot
                        if walk_stats:
                            array.stat_installs += 1
                        part_of[slot] = cid
                        if shared_code:
                            touched_by[slot] = 1 << cid
                        sizes[cid] += 1
                        index = (
                            STREAM_WAYS if streaming[cid] else alloc_ways[cid]
                        )
                        if index > len(chain):
                            index = len(chain)
                        chain.insert(index, slot)
                        for i in range(index, len(chain)):
                            pos_of[chain[i]] = i
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
