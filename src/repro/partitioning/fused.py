"""Batch access bodies for the non-Vantage cache front-ends.

The batch kernel's scheduling loop lives once, in
``repro.partitioning.base_cache``; each builder here supplies only the
L2 ``hit(slot, cid)`` and ``miss(addr, cid, i)`` bodies it calls per
L1 miss (see ``PartitionedCache.build_batch_kernel`` for the
protocol).  A body fuses the policy update, victim selection and
install bookkeeping of one (array geometry, replacement policy) pair:
no ``Candidate`` construction, no per-access method dispatch through
the ``PartitionedCache``/``ReplacementPolicy`` seams, and the hot
columns (tags, policy state, owner column, stats counters) captured as
closure cells.  Policy registers such as coarse LRU's ``current_ts``
stay live on the policy object, so an event the object path runs in
between sees them current.

Behaviour is pinned bitwise-identical to the object-oriented access
methods -- the same stats counters, the same RNG draws, the same
telemetry bumps -- which ``REPRO_FUSED=0`` (running the object path)
and the parity tests enforce.  Builders return ``None`` for
combinations without a body; those runs keep the object path.

This module must not import ``repro.core`` (the Vantage bodies live
in that package's ``fused`` module); it is imported for its
registration side effects at the end of ``repro.partitioning``.
"""

from __future__ import annotations

from repro.arrays.base import CacheArray
from repro.arrays.set_assoc import SetAssociativeArray
from repro.arrays.skew import SkewAssociativeArray
from repro.partitioning.base_cache import NO_PART, BaselineCache, register_batch_kernel
from repro.partitioning.pipp import STREAM_WAYS, PIPPCache
from repro.partitioning.way_partitioning import WayPartitionedCache
from repro.replacement.base import ReplacementPolicy, SlotStatePolicy
from repro.replacement.lru import TIMESTAMP_MOD, CoarseLRUPolicy, PerfectLRUPolicy
from repro.replacement.other import LFU_MAX, LFUPolicy
from repro.replacement.rrip import RRPV_MAX, SRRIPPolicy, _RRIPBase

_TS_MASK = TIMESTAMP_MOD - 1


def _policy_hit(cache, policy):
    """The hit body of a cache ranked by one replacement policy (the
    baselines and way-partitioning): the policy's hit update inlined
    for the stock policies, then the shared-hit policy."""
    state = policy.state if isinstance(policy, SlotStatePolicy) else None
    pol_cls = type(policy)
    lru = pol_cls is CoarseLRUPolicy
    plru = pol_cls is PerfectLRUPolicy
    rrip = pol_cls.on_hit is _RRIPBase.on_hit
    lfu = pol_cls is LFUPolicy
    on_hit = policy.on_hit
    granularity = getattr(policy, "_granularity", 1)
    tags = cache.array._tags
    part_of = cache.part_of
    shared_code = cache._shared_code
    shared_hit = cache._shared_hit

    def hit(slot, cid):
        if lru:
            state[slot] = policy.current_ts
            acc = policy._accesses + 1
            if acc >= granularity:
                policy._accesses = 0
                policy.current_ts = (policy.current_ts + 1) & _TS_MASK
            else:
                policy._accesses = acc
        elif rrip:
            state[slot] = 0
        elif plru:
            clock = policy._clock + 1
            policy._clock = clock
            state[slot] = clock
        elif lfu:
            if state[slot] < LFU_MAX:
                state[slot] += 1
        else:
            on_hit(slot, cid, tags[slot])
        if shared_code and part_of[slot] != cid:
            shared_hit(slot, cid)

    return hit


@register_batch_kernel(BaselineCache)
def build_baseline_bodies(cache: BaselineCache, ctx):
    array = cache.array
    policy = cache.policy
    if type(array) is SetAssociativeArray and type(policy) is CoarseLRUPolicy:
        return _policy_hit(cache, policy), _sa_lru_miss(cache, array, policy, ctx)
    if type(array).candidate_slots is CacheArray.candidate_slots:
        return None
    if type(policy).select_victim_index is ReplacementPolicy.select_victim_index:
        return None
    return _policy_hit(cache, policy), _generic_miss(cache, array, policy, ctx)


def _sa_lru_miss(cache, array, policy, ctx):
    """Miss body for BaselineCache on a set-associative array with
    coarse LRU: the set scan and install inlined."""
    cols = ctx.cols
    slot_of = array._slot_of
    slot_ints = array._slot_ints
    tags = array._tags
    set_free = array._set_free
    num_ways = array.num_ways
    state = policy.state
    granularity = policy._granularity
    part_of = cache.part_of
    sizes = cache._sizes
    shared_code = cache._shared_code
    touched_by = cache.touched_by
    st_evict = cache.stats.evictions
    walk_stats = array._collect

    def miss(addr, cid, i):
        cur_ts = policy.current_ts
        si = cols[cid][i]
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
            slot_of[addr] = slot_ints[slot]
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
            slot_of[addr] = slot_ints[slot]
        if walk_stats:
            array.stat_installs += 1
        part_of[slot] = cid
        if shared_code:
            touched_by[slot] = 1 << cid
        sizes[cid] += 1
        state[slot] = cur_ts
        acc = policy._accesses + 1
        if acc >= granularity:
            policy._accesses = 0
            policy.current_ts = (cur_ts + 1) & _TS_MASK
        else:
            policy._accesses = acc

    return miss


def _generic_miss(cache, array, policy, ctx):
    """Miss body for BaselineCache on any fast-path array with any
    indexed policy.  ``select_victim_index`` stays a bound call and
    may read the policy's registers mid-event (coarse LRU ages against
    ``current_ts``)."""
    cols = ctx.cols
    candidate_slots = array.candidate_slots
    install_walk = array.install_walk
    moves_buf = array._install_moves
    # A miss hands the walk its column entry: the positions tuple of a
    # skew array or zcache (mapped through the slot table, since the
    # walk stores these ints), the set index of a set-associative
    # array (arrays without a column leave cols[cid] None).
    skew = isinstance(array, SkewAssociativeArray)
    num_ways = array.num_ways
    slot_ints = array._slot_ints
    state = policy.state if isinstance(policy, SlotStatePolicy) else None
    pol_cls = type(policy)
    select_index = policy.select_victim_index
    lru = pol_cls is CoarseLRUPolicy
    plru = pol_cls is PerfectLRUPolicy
    srrip = pol_cls is SRRIPPolicy
    on_insert = policy.on_insert
    plain_move = pol_cls.on_move is SlotStatePolicy.on_move and state is not None
    on_move = policy.on_move
    granularity = getattr(policy, "_granularity", 1)
    part_of = cache.part_of
    sizes = cache._sizes
    shared_code = cache._shared_code
    touched_by = cache.touched_by
    st_evict = cache.stats.evictions

    def miss(addr, cid, i):
        col = cols[cid]
        if col is None:
            first = None
        elif skew:
            k = i * num_ways
            first = tuple([slot_ints[s] for s in col[k : k + num_ways]])
        else:
            first = col[i]
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
        landing = install_walk(addr, slots, parents, index, first)
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
        if lru:
            state[landing] = policy.current_ts
            acc = policy._accesses + 1
            if acc >= granularity:
                policy._accesses = 0
                policy.current_ts = (policy.current_ts + 1) & _TS_MASK
            else:
                policy._accesses = acc
        elif srrip:
            state[landing] = RRPV_MAX - 1
        elif plru:
            clock = policy._clock + 1
            policy._clock = clock
            state[landing] = clock
        else:
            on_insert(landing, cid, addr)

    return miss


@register_batch_kernel(WayPartitionedCache)
def build_waypart_bodies(cache: WayPartitionedCache, ctx):
    array = cache.array
    policy = cache.policy
    if type(array) is not SetAssociativeArray or type(policy) is not CoarseLRUPolicy:
        return None
    cols = ctx.cols
    slot_of = array._slot_of
    slot_ints = array._slot_ints
    tags = array._tags
    set_free = array._set_free
    num_ways = array.num_ways
    state = policy.state
    granularity = policy._granularity
    way_owner = cache._way_owner
    part_of = cache.part_of
    sizes = cache._sizes
    shared_code = cache._shared_code
    touched_by = cache.touched_by
    st_evict = cache.stats.evictions
    walk_stats = array._collect

    def miss(addr, cid, i):
        cur_ts = policy.current_ts
        base = cols[cid][i] * num_ways
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
            slot_of[addr] = slot_ints[slot]
            set_free[base // num_ways] -= 1
        else:
            slot = victim
            owner = part_of[slot]
            if owner >= 0:
                st_evict[owner] += 1
                sizes[owner] -= 1
            del slot_of[tags[slot]]
            tags[slot] = addr
            slot_of[addr] = slot_ints[slot]
        if walk_stats:
            array.stat_installs += 1
        part_of[slot] = cid
        if shared_code:
            touched_by[slot] = 1 << cid
        sizes[cid] += 1
        state[slot] = cur_ts
        acc = policy._accesses + 1
        if acc >= granularity:
            policy._accesses = 0
            policy.current_ts = (cur_ts + 1) & _TS_MASK
        else:
            policy._accesses = acc

    return _policy_hit(cache, policy), miss


@register_batch_kernel(PIPPCache)
def build_pipp_bodies(cache: PIPPCache, ctx):
    array = cache.array
    cols = ctx.cols
    slot_of = array._slot_of
    slot_ints = array._slot_ints
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
    st_evict = cache.stats.evictions
    walk_stats = array._collect

    def hit(slot, cid):
        win_accesses[cid] += 1
        if rng_random() < (p_stream if streaming[cid] else p_prom):
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

    def miss(addr, cid, i):
        win_accesses[cid] += 1
        win_misses[cid] += 1
        si = cols[cid][i]
        chain = chains[si]
        base = si * num_ways
        if set_free[si]:
            slot = -1
            for s in range(base, base + num_ways):
                if tags[s] < 0:
                    slot = slot_ints[s]
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
            for k in range(len(chain)):
                pos_of[chain[k]] = k
            del slot_of[tags[slot]]
            tags[slot] = addr
            slot_of[addr] = slot
        if walk_stats:
            array.stat_installs += 1
        part_of[slot] = cid
        if shared_code:
            touched_by[slot] = 1 << cid
        sizes[cid] += 1
        index = STREAM_WAYS if streaming[cid] else alloc_ways[cid]
        if index > len(chain):
            index = len(chain)
        chain.insert(index, slot)
        for k in range(index, len(chain)):
            pos_of[chain[k]] = k

    return hit, miss
