"""Shared cache front-end and the unpartitioned baseline.

Every cache in this repository -- the LRU/RRIP baselines,
way-partitioning, PIPP and Vantage -- presents the same surface:

``access(addr, part) -> bool``
    Perform one access on behalf of partition ``part`` (a thread, in
    the paper's evaluation); returns ``True`` on a hit.

``set_allocations(units)``
    Install new per-partition capacity targets; the unit (ways or
    lines) depends on the scheme and is exposed as
    :attr:`allocation_unit` / :attr:`allocation_total`.

All caches also keep, per slot, the partition that inserted the line
(`part_of`), so experiments can measure each partition's *actual*
footprint under any scheme -- the quantity plotted in Figure 8.
"""

from __future__ import annotations

import heapq
import os
from abc import ABC, abstractmethod
from array import array as _array
from dataclasses import dataclass, field
from typing import Callable

from repro.arrays.base import CacheArray, Candidate
from repro.replacement.base import ReplacementPolicy

#: ``part_of`` value for an empty slot.  Partition IDs are
#: non-negative and Vantage's unmanaged region is -1, so -2 keeps
#: ``owner >= 0`` as the "slot holds an owned line" test while still
#: distinguishing empty from unmanaged.
NO_PART = -2

#: On-shared-hit policies: what happens when a line is hit by a
#: partition other than its current owner (only possible on
#: shared-region mixes, where address spaces overlap).  ``part_of``
#: stays the single *owner* column driving eviction attribution and
#: size accounting; the ``touched_by`` bitmask records every partition
#: that ever hit the line.
#:
#: - ``keep-owner``: bookkeeping only -- ownership never moves.
#: - ``migrate-to-requester``: the requester takes ownership (and the
#:   line's budget) on every cross-owner hit, tracking migratory use.
#: - ``promote-to-shared``: hand the line to a shared pool.  Only
#:   Vantage has one (the unmanaged region); strictly partitioned
#:   schemes fall back to ``keep-owner``.
SHARED_POLICIES = {
    "keep-owner": 1,
    "migrate-to-requester": 2,
    "promote-to-shared": 3,
}


def fused_default() -> bool:
    """Whether runs should use the batch access kernels.

    Read from ``REPRO_FUSED`` ("0" disables) when a
    :class:`~repro.sim.system.CMPSystem` is built; the object-oriented
    ``access`` methods stay the fallback and the oracle the batch
    kernels are pinned against.
    """
    return os.environ.get("REPRO_FUSED", "1") != "0"


#: Registry of batch access-body builders, keyed by concrete cache
#: class.  A builder is called as ``builder(cache, ctx)`` with a
#: :class:`BatchContext` and returns the cache's two access bodies,
#: ``(hit, miss)``, or ``None`` when the cache's array/policy
#: combination has no batch body.  :func:`_batch_kernel` runs them (see
#: :meth:`PartitionedCache.build_batch_kernel` for the protocol).
_BATCH_KERNELS: dict[type, Callable] = {}


def register_batch_kernel(cls: type):
    """Class decorator registering a batch body builder for ``cls``."""

    def decorator(builder: Callable):
        _BATCH_KERNELS[cls] = builder
        return builder

    return decorator


@dataclass
class BatchContext:
    """Event-loop and scheduler state a batch kernel closes over.

    Built once per :meth:`CMPSystem.run` and handed to the body
    builders and :func:`_batch_kernel`.  A batch kernel absorbs the
    *whole* scheduling loop -- core selection (two-minimum scan or
    heap), the chunk cursors, timing, L1 filtering, policy observation,
    the cache's access bodies and finish bookkeeping -- so one call
    executes events until the next boundary the event loop itself must
    handle (epoch/sample service, a chunk refill, a non-chunked core,
    or completion).

    All list fields are the *live* scheduler state of the running
    ``CMPSystem.run`` invocation, shared by reference and mutated in
    place by the kernel: the event loop's object-path fallback and the
    kernel read and write the same cursors, so control can bounce
    between them mid-run with no hand-off step.

    ``sample_gets``/``observed``/``mon_accesses``/``mon_decides`` are
    the exploded fast path of :meth:`UCPPolicy.observe` (per-partition
    sample filters, observation counters and bound monitor accessors
    and deciders); they are ``None`` when the policy is absent or
    overrides ``observe``, in which case the kernel falls back to the
    bound ``observe`` call.

    ``cols``/``ucols`` are the per-core *index columns* of the chunk
    each core is reading, rebuilt by ``CMPSystem.run`` at every refill
    like ``bufs``: ``cols[cid]`` is the L2 array's
    :meth:`~repro.arrays.base.CacheArray.index_column` (``None`` for
    arrays that hash nothing) and ``ucols[cid]`` the core's UMON
    :meth:`~repro.telemetry.SampledMonitor.index_column` (built and
    read only with ``sample_gets``).  The kernel at cursor ``pos`` (just
    past a pair) reads that pair's entries at ``(pos >> 1) - 1``
    (times the column width), so no address is hashed on the hot path.
    """

    hit_latency: int
    memory: object
    observe: Callable | None
    sample_gets: list | None
    observed: list | None
    mon_accesses: list | None
    mon_decides: list | None
    l1s: list | None
    collect: bool
    l1_hits: list
    #: -- scheduler state (shared with CMPSystem.run, mutated in place)
    num_cores: int
    target: int
    bufs: list
    cols: list
    ucols: list
    positions: list
    limits: list
    instructions: list
    finished_at: list
    instructions_at_finish: list
    times: list
    heap: list | None
    batched: list


def _batch_kernel(cache: PartitionedCache, ctx: BatchContext, hit, miss):
    """The one scheduling skeleton: the event loop with ``cache``'s
    access bodies plugged in (see
    :meth:`PartitionedCache.build_batch_kernel` for the protocol).

    Per L1 miss the skeleton observes the access for UCP, looks the tag
    up and counts the access, then calls ``hit(slot, cid)`` or
    ``miss(addr, cid, i)``, with ``i`` the pair's index in the chunk's
    columns.  A miss then goes to memory: :meth:`MemoryModel.request`
    is inlined, its ``requests``/``total_queue_cycles`` counters hoisted
    into frame locals and flushed before every return, preserving the
    exact accumulation order.  The bodies keep all cache and policy
    state live on their objects, so nothing else is hoisted.
    """
    hit_latency = ctx.hit_latency
    memory = ctx.memory
    num_controllers = memory.num_controllers
    mem_latency = memory.latency
    service_cycles = memory.service_cycles
    free_at = memory._free_at
    observe = ctx.observe
    sample_gets = ctx.sample_gets
    observed = ctx.observed
    mon_accesses = ctx.mon_accesses
    mon_decides = ctx.mon_decides
    l1_accesses = [l1.access for l1 in ctx.l1s] if ctx.l1s is not None else None
    collect = ctx.collect
    l1_hits = ctx.l1_hits
    num_cores = ctx.num_cores
    target = ctx.target
    bufs = ctx.bufs
    ucols = ctx.ucols
    positions = ctx.positions
    limits = ctx.limits
    instructions = ctx.instructions
    finished_at = ctx.finished_at
    instructions_at_finish = ctx.instructions_at_finish
    times = ctx.times
    heap = ctx.heap
    batched = ctx.batched
    heappush = heapq.heappush
    heappop = heapq.heappop
    inf = float("inf")

    lookup = cache._lookup
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
                    st_acc[cid] += 1
                    if slot is not None:
                        st_hit[cid] += 1
                        hit(slot, cid)
                        t += hit_latency
                    else:
                        st_miss[cid] += 1
                        miss(addr, cid, (pos >> 1) - 1)
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
            # -- park the core: write its cursor back and requeue it.
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


@dataclass
class CacheStats:
    """Per-partition access statistics.

    ``evictions[p]`` counts evictions whose *victim* belonged to
    partition ``p`` (the interference-relevant direction), regardless
    of which partition's miss caused them.
    """

    num_partitions: int
    accesses: list[int] = field(default_factory=list)
    hits: list[int] = field(default_factory=list)
    misses: list[int] = field(default_factory=list)
    evictions: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        for name in ("accesses", "hits", "misses", "evictions"):
            if not getattr(self, name):
                setattr(self, name, [0] * self.num_partitions)

    @property
    def total_accesses(self) -> int:
        return sum(self.accesses)

    @property
    def total_misses(self) -> int:
        return sum(self.misses)

    def miss_rate(self, part: int | None = None) -> float:
        if part is None:
            acc, miss = self.total_accesses, self.total_misses
        else:
            acc, miss = self.accesses[part], self.misses[part]
        return miss / acc if acc else 0.0

    def reset(self) -> None:
        # In place: batch kernels capture these lists at build time,
        # so rebinding them would silently disconnect a kernel from
        # the stats it reports into.
        for counters in (self.accesses, self.hits, self.misses, self.evictions):
            for i in range(len(counters)):
                counters[i] = 0


class PartitionedCache(ABC):
    """Common behaviour for every cache front-end.

    Parameters
    ----------
    array:
        Backing :class:`CacheArray`.
    num_partitions:
        Number of partitions the scheme must support (1 for the
        unpartitioned baseline).
    """

    #: "ways" or "lines" -- the unit of ``set_allocations``.
    allocation_unit: str = "lines"

    def __init__(
        self,
        array: CacheArray,
        num_partitions: int,
        shared_policy: str | None = None,
    ):
        if num_partitions <= 0:
            raise ValueError(f"num_partitions must be positive, got {num_partitions}")
        if shared_policy is not None and shared_policy not in SHARED_POLICIES:
            raise ValueError(
                f"unknown shared-hit policy {shared_policy!r}; "
                f"known: {', '.join(sorted(SHARED_POLICIES))}"
            )
        if shared_policy is not None and num_partitions > 63:
            raise ValueError(
                "shared-hit tracking uses a 64-bit touched_by bitmask; "
                f"{num_partitions} partitions do not fit"
            )
        self.array = array
        self.num_partitions = num_partitions
        self.num_lines = array.num_lines
        self.stats = CacheStats(num_partitions)
        # Flat owner column (structure-of-arrays): NO_PART for empty
        # slots, UNMANAGED (-1) for Vantage's unmanaged region,
        # otherwise the owning partition -- so ``owner >= 0`` is the
        # single hot-path ownership test.  The owner is the partition
        # *accountable* for the line (eviction attribution, size
        # budgets); on shared-region mixes other partitions may hit it
        # too, which ``touched_by`` records as a per-line core bitmask.
        self.part_of = _array("q", [NO_PART]) * array.num_lines
        self.touched_by = _array("q", [0]) * array.num_lines
        #: On-shared-hit policy (``None`` = off: bitwise-identical to
        #: the pre-sharing behaviour, no bookkeeping at all).
        self.shared_policy = shared_policy
        self._shared_code = SHARED_POLICIES.get(shared_policy, 0)
        #: Cross-owner hits, indexed by the *requesting* partition.
        self.shared_hits = [0] * num_partitions
        #: Ownership transfers, indexed by the partition that took over.
        self.shared_moves = [0] * num_partitions
        self._sizes = [0] * num_partitions
        # Bound tag-lookup for the access hot path (the array's
        # _slot_of dict is created once and never replaced).
        self._lookup = array._slot_of.get
        #: Optional measurement hook called as ``fn(victim_slot, victim_part)``
        #: immediately *before* an occupied victim is evicted.
        self.eviction_hook: Callable[[int, int], None] | None = None

    # ------------------------------------------------------------------
    # Public surface.
    # ------------------------------------------------------------------

    @property
    @abstractmethod
    def allocation_total(self) -> int:
        """Total capacity available for allocation, in allocation units."""

    @abstractmethod
    def set_allocations(self, units: list[int]) -> None:
        """Install per-partition targets (length ``num_partitions``)."""

    @abstractmethod
    def access(self, addr: int, part: int = 0) -> bool:
        """Perform one access; returns ``True`` on hit."""

    def partition_size(self, part: int) -> int:
        """Current footprint of ``part`` in lines (measured, not target)."""
        return self._sizes[part]

    def partition_sizes(self) -> list[int]:
        return list(self._sizes)

    def reset_stats(self) -> None:
        self.stats.reset()
        # In place, like CacheStats.reset: kernels hoist these lists.
        for counters in (self.shared_hits, self.shared_moves):
            for i in range(len(counters)):
                counters[i] = 0

    # ------------------------------------------------------------------
    # Batch access kernels.
    # ------------------------------------------------------------------

    def build_batch_kernel(self, ctx: BatchContext):
        """Build this cache's batch scheduling kernel, or ``None``.

        A batch kernel runs the whole multi-core event loop -- core
        selection, chunk cursors, timing, observation and this cache's
        access bodies -- in one frame until a boundary only the caller
        can handle::

            kernel(next_service, unfinished)
                -> (now, unfinished, reason, cid)

        ``next_service`` is the next epoch/sample deadline and
        ``unfinished`` the count of cores still short of their
        instruction target; the kernel consumes scheduling events
        (reading and updating the shared cursors in its
        :class:`BatchContext`) and reports why it stopped: ``1`` = an
        epoch/sample service is due at ``now`` (repartition/sample,
        then re-enter), ``2`` = core ``cid``'s chunk is exhausted
        (refill, then re-enter), ``4`` = core ``cid`` is not chunked
        (run one event through :meth:`access`, then re-enter),
        ``3`` = the last unfinished core crossed its target (``now``
        is the run's final cycle count).  Before every return the
        kernel parks the in-flight core back in the scheduler
        (``times``/``heap``) at its current time, so re-entry resumes
        it through the ordinary selection scan -- there is no hidden
        resume state.  Behaviour is pinned bitwise-identical to the
        object path (``REPRO_FUSED=0``).

        The loop is :func:`_batch_kernel`, the same for every scheme;
        the builder registered for this class supplies only the L2
        ``hit``/``miss`` bodies.  The bodies call no measurement
        hooks, so caches with hooks installed decline batching and
        hooked runs take the object path (:meth:`access`) instead.
        """
        if self.eviction_hook is not None:
            return None
        if getattr(self, "demotion_hook", None) is not None:
            return None
        builder = _BATCH_KERNELS.get(type(self))
        if builder is None:
            return None
        bodies = builder(self, ctx)
        if bodies is None:
            return None
        hit, miss = bodies
        return _batch_kernel(self, ctx, hit, miss)

    def register_stats(self, group) -> None:
        """Register the per-partition front-end counters; subclasses
        extend with scheme-specific registers."""
        st = self.stats
        group.stat(
            "accesses", lambda: list(st.accesses), "per-partition accesses"
        )
        group.stat("hits", lambda: list(st.hits), "per-partition hits")
        group.stat("misses", lambda: list(st.misses), "per-partition misses")
        group.stat(
            "evictions",
            lambda: list(st.evictions),
            "per-partition evictions (victim's partition)",
        )
        group.stat(
            "partition_sizes",
            lambda: self.partition_sizes(),
            "per-partition resident footprints, in lines",
        )
        # Gated on an explicit shared-hit policy so the stats schema
        # (and every existing golden tree) is unchanged for the
        # multiprogrammed schemes.
        if self._shared_code:
            sharing = group.group("sharing", "cross-owner line sharing")
            sharing.stat(
                "policy", lambda: self.shared_policy, "on-shared-hit policy"
            )
            sharing.stat(
                "shared_hits",
                lambda: list(self.shared_hits),
                "cross-owner hits, by requesting partition",
            )
            sharing.stat(
                "shared_moves",
                lambda: list(self.shared_moves),
                "ownership transfers, by new owner",
            )
            sharing.stat(
                "multi_touched_lines",
                lambda: sum(
                    1 for bits in self.touched_by if bits and bits & (bits - 1)
                ),
                "resident lines touched by more than one partition",
            )

    # ------------------------------------------------------------------
    # Bookkeeping helpers for subclasses.
    # ------------------------------------------------------------------

    def _record_access(self, part: int, hit: bool) -> None:
        st = self.stats
        st.accesses[part] += 1
        if hit:
            st.hits[part] += 1
        else:
            st.misses[part] += 1

    def _shared_hit(self, slot: int, requester: int) -> int:
        """Apply the on-shared-hit policy to a cross-owner hit.

        Called only when a shared-hit policy is active and
        ``part_of[slot] != requester`` on a hit.  Returns the line's
        owner after the policy ran (callers that stamp owner-relative
        state use the return value).  The base implementation covers
        strictly partitioned schemes: ``promote-to-shared`` has no
        shared pool here and falls back to ``keep-owner``; Vantage
        overrides this to move lines through its unmanaged region.
        """
        self.touched_by[slot] |= 1 << requester
        self.shared_hits[requester] += 1
        if self._shared_code == SHARED_POLICIES["migrate-to-requester"]:
            owner = self.part_of[slot]
            self.part_of[slot] = requester
            self._sizes[owner] -= 1
            self._sizes[requester] += 1
            self.shared_moves[requester] += 1
            return requester
        return self.part_of[slot]

    def _evict_bookkeeping(self, victim: Candidate) -> None:
        """Account for the eviction of an occupied ``victim``."""
        owner = self.part_of[victim.slot]
        if self._shared_code:
            self.touched_by[victim.slot] = 0
        if owner >= 0:
            if self.eviction_hook is not None:
                self.eviction_hook(victim.slot, owner)
            self.stats.evictions[owner] += 1
            self._sizes[owner] -= 1
            self.part_of[victim.slot] = NO_PART

    def _install_bookkeeping(
        self, addr: int, part: int, victim: Candidate, moves: list[tuple[int, int]]
    ) -> int:
        """Relocate ``part_of`` along ``moves`` and claim the landing slot.

        Returns the slot the new line landed in (``victim.path[0]``).
        """
        part_of = self.part_of
        for src, dst in moves:
            part_of[dst] = part_of[src]
            part_of[src] = NO_PART
        landing = victim.path[0]
        part_of[landing] = part
        if self._shared_code:
            touched_by = self.touched_by
            for src, dst in moves:
                touched_by[dst] = touched_by[src]
                touched_by[src] = 0
            touched_by[landing] = 1 << part
        self._sizes[part] += 1
        return landing

    @staticmethod
    def _first_empty(candidates: list[Candidate]) -> Candidate | None:
        for cand in candidates:
            if cand.addr is None:
                return cand
        return None


class BaselineCache(PartitionedCache):
    """Unpartitioned cache: one array plus one replacement policy.

    This is the paper's LRU / RRIP baseline ("LRU-SA16", "LRU-Z4/52",
    "SRRIP-Z4/52", ...).  Partition IDs are still accepted and tracked
    so per-thread statistics and footprints can be measured, but they
    never influence replacement.
    """

    allocation_unit = "lines"

    def __init__(
        self,
        array: CacheArray,
        policy: ReplacementPolicy,
        num_partitions: int = 1,
        shared_policy: str | None = None,
    ):
        super().__init__(array, num_partitions, shared_policy=shared_policy)
        if policy.num_lines != array.num_lines:
            raise ValueError("policy and array disagree on num_lines")
        self.policy = policy

    @property
    def allocation_total(self) -> int:
        return self.num_lines

    def set_allocations(self, units: list[int]) -> None:
        # An unpartitioned cache has nothing to enforce; accept and
        # ignore so allocation policies can drive any scheme uniformly.
        if len(units) != self.num_partitions:
            raise ValueError("allocation vector length mismatch")

    def register_stats(self, group) -> None:
        super().register_stats(group)
        if hasattr(self.policy, "register_stats"):
            self.policy.register_stats(
                group.group("replacement", "base replacement policy")
            )

    def access(self, addr: int, part: int = 0) -> bool:
        array = self.array
        st = self.stats
        slot = self._lookup(addr)
        if slot is not None:
            self.policy.on_hit(slot, part, addr)
            st.accesses[part] += 1
            st.hits[part] += 1
            if self._shared_code and self.part_of[slot] != part:
                self._shared_hit(slot, part)
            return True

        st.accesses[part] += 1
        st.misses[part] += 1
        fast = array.candidate_slots(addr)
        if fast is not None:
            slots, parents, has_empty = fast
            if has_empty:
                victim = array.make_candidate(slots, parents, len(slots) - 1)
            else:
                index = self.policy.select_victim_index(slots)
                if index is None:
                    candidates = [
                        array.make_candidate(slots, parents, i)
                        for i in range(len(slots))
                    ]
                    victim = self.policy.select_victim(candidates)
                else:
                    victim = array.make_candidate(slots, parents, index)
                self._evict_bookkeeping(victim)
        else:
            candidates = array.candidates(addr)
            victim = self._first_empty(candidates)
            if victim is None:
                victim = self.policy.select_victim(candidates)
                self._evict_bookkeeping(victim)
        moves = array.install(addr, victim)
        for src, dst in moves:
            self.policy.on_move(src, dst)
        landing = self._install_bookkeeping(addr, part, victim, moves)
        self.policy.on_insert(landing, part, addr)
        return False
