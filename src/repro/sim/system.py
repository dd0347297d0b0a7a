"""Trace-driven CMP simulation (the paper's evaluation substrate).

``CMPSystem`` interleaves per-core access traces over a shared L2 in
global cycle order: in-order cores execute at IPC = 1 between memory
events (the paper's Atom-like cores) and stall for the full L2 or
memory latency on each access, so all performance differences between
partitioning schemes come from L2 hit/miss behaviour -- exactly the
paper's setup.

Traces may be *post-L1* (each item is an L2 access preceded by a gap
of non-memory/ L1-hit instructions; the default, and what the workload
generators produce) or *memory-instruction level* with ``use_l1=True``
to filter through private L1 models.

Every ``epoch_cycles`` the system invokes the allocation policy (UCP),
installs the new targets in the cache, re-runs PIPP's stream
classification, and optionally samples target/actual partition sizes
for Figure 8-style time series.

Requester vs owner
------------------
Every access carries the *requesting* core: the ``cid`` threaded from
the event loop into ``policy.observe(cid, addr)`` and
``cache.access(addr, cid)``.  On multiprogrammed mixes each core's
trace lives in a disjoint address-space slice (``core << 44``), so the
requester and the line's owning partition always coincide.  Shared-
region mixes (:class:`~repro.workloads.SharedRegionSpec`) break that
identity on purpose: several cores issue the same line addresses, and
a hit's requester may differ from the ``part_of`` owner recorded at
install time.  The event loop itself needs no cases for this -- the
requester is simply an argument -- while the cache's on-shared-hit
policy (``shared_policy``) decides whether ownership follows the
requester, and reuse-aware UCP classifies such accesses separately.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro import telemetry
from repro.analysis.stats import SizeTimeSeries
from repro.partitioning.base_cache import BatchContext, fused_default
from repro.sim.configs import SystemConfig
from repro.sim.l1 import L1Cache
from repro.sim.memory import MemoryModel
from repro.traces import TraceSpec, get_store


@dataclass
class CoreResult:
    """Outcome of one core's run."""

    instructions: int
    cycles: float
    finished_at: float | None

    @property
    def ipc(self) -> float:
        cycles = self.finished_at if self.finished_at is not None else self.cycles
        return self.instructions / cycles if cycles else 0.0


@dataclass
class SystemResult:
    """Outcome of a whole-mix simulation."""

    cores: list[CoreResult]
    total_cycles: float
    l2_miss_rates: list[float] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Sum of per-core IPCs (the paper's headline metric)."""
        return sum(core.ipc for core in self.cores)


class CMPSystem:
    """Cores + private L1s + shared partitioned L2 + memory.

    Parameters
    ----------
    cache:
        Any :class:`~repro.partitioning.base_cache.PartitionedCache`.
    traces:
        One iterable factory per core: calling ``factory()`` returns a
        fresh (infinite or restartable) iterator of ``(gap, addr)``
        pairs, ``gap`` being the instructions executed since the
        previous item.  Cores whose factory is a
        :class:`~repro.traces.TraceSpec` are fed from the compiled
        chunk store; plain callables keep the generator feed.
    config:
        A :class:`~repro.sim.configs.SystemConfig`.
    policy:
        Optional allocation policy with ``observe(part, addr)`` and
        ``allocate() -> units``; invoked every ``config.epoch_cycles``.
    use_l1:
        Route trace items through private L1 models (trace items are
        then memory instructions, not L2 accesses).
    size_series / size_sample_cycles:
        Optional :class:`SizeTimeSeries` sampled on the given period;
        give both or neither.
    """

    def __init__(
        self,
        cache,
        traces,
        config: SystemConfig,
        policy=None,
        use_l1: bool = False,
        size_series: SizeTimeSeries | None = None,
        size_sample_cycles: int | None = None,
    ):
        if size_sample_cycles is not None and size_sample_cycles < 1:
            # A period below one cycle never advances the sample clock:
            # a negative one hangs the run, zero samples nothing.
            raise ValueError(
                f"size_sample_cycles must be >= 1, got {size_sample_cycles!r}"
            )
        if (size_series is None) != (size_sample_cycles is None):
            # A period without a series dies at the first sample; a
            # series without a period silently stays empty.
            raise ValueError(
                "size_series and size_sample_cycles must be given together"
            )
        self.cache = cache
        self.trace_factories = list(traces)
        if len(self.trace_factories) != config.num_cores:
            raise ValueError(
                f"{config.num_cores} cores need {config.num_cores} traces, "
                f"got {len(self.trace_factories)}"
            )
        self.config = config
        self.policy = policy
        self.use_l1 = use_l1
        self.l1s = [
            L1Cache(config.l1_bytes, config.l1_ways, config.line_bytes)
            for _ in range(config.num_cores)
        ] if use_l1 else None
        self.memory = MemoryModel(
            num_controllers=config.mem_controllers,
            latency=config.mem_latency,
            bytes_per_cycle=config.mem_bytes_per_cycle,
            line_bytes=config.line_bytes,
        )
        self.size_series = size_series
        self.size_sample_cycles = size_sample_cycles
        self._last_units: list[int] | None = None
        # Telemetry counters (see repro.telemetry).  The L1 counter
        # lives on the event loop's hot path, so it is gated by the
        # construction-time ``_collect`` flag; stall cycles cost
        # nothing because they are *derived* after the run (cores
        # advance one cycle per instruction, so time minus instructions
        # is exactly the stall total); epoch/sample counters are
        # per-epoch and always maintained.
        self._collect = telemetry.enabled()
        # ``REPRO_FUSED=0`` switches the batch layer off, leaving every
        # event to ``cache.access`` (the object path, the oracle).
        self._batch_layer = fused_default()
        self.batch_calls = 0
        self._final_times = [0.0] * config.num_cores
        self._instruction_counts = [0] * config.num_cores
        self.l1_hits = [0] * config.num_cores
        self.trace_chunks = [0] * config.num_cores
        self.epochs = 0
        self.samples = 0

    # ------------------------------------------------------------------

    def _target_lines(self) -> list[int]:
        """Last allocation, converted to lines for time-series capture."""
        cache = self.cache
        units = self._last_units
        if units is None:
            if hasattr(cache, "target"):
                return list(cache.target)
            return [0] * cache.num_partitions
        if cache.allocation_unit == "ways":
            lines_per_way = cache.num_lines // cache.array.num_ways
            return [u * lines_per_way for u in units]
        return list(units)

    def _repartition(self) -> None:
        self.epochs += 1
        units = self.policy.allocate()
        self._last_units = units
        self.cache.set_allocations(units)
        if hasattr(self.cache, "reclassify_streams"):
            self.cache.reclassify_streams()

    def stall_cycles(self) -> list[float]:
        """Per-core cycles stalled on L2/memory, derived post-run."""
        return [
            t - n for t, n in zip(self._final_times, self._instruction_counts)
        ]

    def register_stats(self, group) -> None:
        """Register the system's counters into a stats tree group."""
        group.stat(
            "stall_cycles",
            self.stall_cycles,
            "per-core cycles stalled on L2/memory (derived post-run)",
        )
        group.stat(
            "l1_hits",
            lambda: list(self.l1_hits),
            "per-core accesses filtered by the private L1s",
        )
        group.stat(
            "trace_chunks",
            lambda: list(self.trace_chunks),
            "per-core trace chunks fetched from the chunk store",
        )
        group.stat(
            "epochs",
            lambda: self.epochs,
            "allocation epochs (policy invocations)",
        )
        group.stat(
            "size_samples",
            lambda: self.samples,
            "partition-size time-series samples taken",
        )

    def _build_batch_kernel(
        self,
        target: int,
        bufs: list,
        cols: list,
        ucols: list,
        positions: list,
        limits: list,
        instructions: list,
        finished_at: list,
        instructions_at_finish: list,
        times: list,
        heap: list | None,
        batched: list,
    ):
        """Build the cache's whole-loop batch kernel and return it with
        the per-core UMON column builders it reads (``None`` when the
        kernel takes no UMON column), or ``(None, None)`` when the
        cache class has none registered (or declines, e.g. because an
        eviction hook is installed).

        The :class:`BatchContext` hands the kernels everything the
        event loop touches: the access-body collaborators plus the
        *live* scheduler state of this ``run`` invocation (cursors,
        instruction counters, core times), shared by reference.  When
        the policy is a stock :class:`~repro.allocation.ucp.UCPPolicy`,
        its ``observe`` is exploded into the per-partition sampling
        periods and monitor methods so the kernels can inline the
        sampled-set early exit (the overwhelmingly common case)
        without a bound call; a UCP subclass that overrides
        ``observe`` is called with the set index from the same column.
        """
        from repro.allocation.static import EqualSharePolicy, StaticPolicy
        from repro.allocation.ucp import UCPPolicy

        policy = self.policy
        observe = policy.observe if policy is not None else None
        periods = observed = mon_accesses = mon_columns = None
        if observe is not None and type(policy).observe in (
            StaticPolicy.observe,
            EqualSharePolicy.observe,
        ):
            # Static allocators observe nothing; dropping the no-op
            # call keeps the kernels' per-access path tight.
            observe = None
        if isinstance(policy, UCPPolicy):
            mon_columns = [m.index_column for m in policy.monitors]
            if type(policy).observe is UCPPolicy.observe:
                periods = policy._periods
                observed = policy.observed
                mon_accesses = [m.access for m in policy.monitors]
                observe = None
        ctx = BatchContext(
            hit_latency=self.config.l2_hit_latency,
            memory=self.memory,
            observe=observe,
            periods=periods,
            observed=observed,
            mon_accesses=mon_accesses,
            l1s=self.l1s,
            collect=self._collect,
            l1_hits=self.l1_hits,
            num_cores=self.config.num_cores,
            target=target,
            bufs=bufs,
            cols=cols,
            ucols=ucols,
            positions=positions,
            limits=limits,
            instructions=instructions,
            finished_at=finished_at,
            instructions_at_finish=instructions_at_finish,
            times=times,
            heap=heap,
            batched=batched,
        )
        kernel = self.cache.build_batch_kernel(ctx)
        if kernel is None:
            return None, None
        return kernel, mon_columns

    def _restart_trace(self, cid: int, iterators: list, nexts: list):
        """Restart core ``cid``'s finite trace and return its first
        item.  A factory that produces an *empty* iterator raises a
        ``ValueError`` naming the core -- never a raw ``StopIteration``
        escaping the event loop."""
        it = self.trace_factories[cid]()
        iterators[cid] = it
        nexts[cid] = it.__next__
        try:
            return it.__next__()
        except StopIteration:
            raise ValueError(
                f"trace for core {cid} is empty: its factory produced an "
                f"iterator with no (gap, addr) items"
            ) from None

    def run(self, instructions_per_core: int) -> SystemResult:
        """Simulate until every core has executed the target
        instruction count; IPC is measured at each core's crossing
        point, as in the paper.

        The oracle is this loop on the object path (``REPRO_FUSED=0``:
        no batch kernel, so every event goes through ``cache.access``).
        The fast path -- the batch kernel, with ``cache.access`` for the
        events it hands back -- must match it bitwise, which the parity
        suites (``tests/integration/``,
        ``tests/sim/test_reference_parity.py``) assert.  The loop itself
        carries three strength reductions over a plain ``(t, cid)``
        heap:

        - cores with few peers are scheduled by a linear two-minimum
          scan instead of a heap -- strict ``<`` picks the lowest core
          ID among ties, matching the ``(t, cid)`` heap ordering -- and
          the epoch/sample checks collapse into one ``next_service``
          compare per event;
        - *run continuation*: after an event, if the core's new time is
          still ahead of every other core (same ``(t, cid)`` order a
          heap pop would use), the loop keeps consuming that core's
          trace without re-selecting -- bursty low-gap cores execute
          long runs with no scheduling work at all;
        - the *chunk cursor*: cores whose trace factory is a
          :class:`~repro.traces.TraceSpec` read ``(gap, addr)`` pairs
          by index out of flat buffers compiled ahead of time by the
          trace store -- the store's own ``array('q')`` or mapped
          ``memoryview('q')``, read in place, not a list copy --
          instead of resuming a generator frame per event; refills
          happen out of the hot loop, once per 4K-pair chunk.
          With a batch kernel, each refill also hashes the chunk's
          addresses once, vectorised, into the core's index columns
          (see :class:`BatchContext`), so the kernels look hashes up
          instead of computing them per miss.
        """
        if instructions_per_core < 1:
            # Checked here, not in SimJob.__post_init__: unpickled
            # jobs (workers, the daemon) skip __post_init__.
            raise ValueError(
                f"instructions_per_core must be >= 1, got {instructions_per_core!r}"
            )
        config = self.config
        cache = self.cache
        policy = self.policy
        memory = self.memory
        l1s = self.l1s
        hit_latency = config.l2_hit_latency
        epoch_cycles = config.epoch_cycles

        num_cores = config.num_cores
        trace_factories = self.trace_factories
        store = get_store()
        chunked = [isinstance(factory, TraceSpec) for factory in trace_factories]
        iterators: list = [None] * num_cores
        nexts: list = [None] * num_cores
        bufs: list = [()] * num_cores
        cols: list = [None] * num_cores
        ucols: list = [None] * num_cores
        positions = [0] * num_cores
        limits = [0] * num_cores
        next_chunk = [0] * num_cores
        trace_chunks = self.trace_chunks

        instructions = [0] * num_cores
        instructions_at_finish = [0] * num_cores
        finished_at: list[float | None] = [None] * num_cores
        unfinished = num_cores

        times = [0.0] * num_cores
        use_heap = num_cores > 8
        heap: list[tuple[float, int]] | None = None
        if use_heap:
            heap = [(0.0, cid) for cid in range(num_cores)]
            heapq.heapify(heap)
            heappush = heapq.heappush
            heappop = heapq.heappop

        # ``batched`` is filled in only after a kernel builds, so the
        # kernels themselves can rely on it: a False entry sends the
        # core to ``cache.access`` (reason 4).
        batched = [False] * num_cores
        batch_kernel = mon_columns = None
        if self._batch_layer and any(chunked):
            batch_kernel, mon_columns = self._build_batch_kernel(
                instructions_per_core,
                bufs,
                cols,
                ucols,
                positions,
                limits,
                instructions,
                finished_at,
                instructions_at_finish,
                times,
                heap,
                batched,
            )
        if batch_kernel is not None:
            for cid in range(num_cores):
                batched[cid] = chunked[cid]
            index_column = cache.array.index_column

        def _refill(cid: int):
            # One store lookup (LRU / disk / compile) per chunk keeps
            # trace production out of the hot loop entirely.  A stream
            # that ends (or is empty) surfaces as the same core-naming
            # ValueError the generator cursor raises -- never a raw
            # StopIteration or an anonymous compile error.
            factory = trace_factories[cid]
            index = next_chunk[cid]
            try:
                buf = store.chunk_list(factory, index)
            except StopIteration:
                raise ValueError(
                    f"trace for core {cid} is empty: its factory produced "
                    f"an iterator with no (gap, addr) items"
                ) from None
            except ValueError as exc:
                raise ValueError(f"trace for core {cid}: {exc}") from None
            next_chunk[cid] += 1
            trace_chunks[cid] += 1
            bufs[cid] = buf
            if batch_kernel is not None:
                cols[cid] = index_column(buf)
                if mon_columns is not None:
                    ucols[cid] = mon_columns[cid](buf)
            limits[cid] = len(buf)
            positions[cid] = 0
            return buf

        for cid, factory in enumerate(trace_factories):
            if chunked[cid]:
                _refill(cid)  # preload each core's first chunk
            else:
                it = factory()
                iterators[cid] = it
                nexts[cid] = it.__next__

        inf = float("inf")
        next_epoch = float(epoch_cycles) if policy is not None else inf
        sample_period = self.size_sample_cycles
        next_sample = float(sample_period) if sample_period else inf
        next_service = next_epoch if next_epoch < next_sample else next_sample
        now = 0.0

        cache_access = cache.access
        mem_request = memory.request
        observe = policy.observe if policy is not None else None
        collect = self._collect
        l1_hits = self.l1_hits

        while unfinished:
            if batch_kernel is not None:
                # Whole-loop dispatch: one kernel call runs scheduling
                # events until a boundary only this loop can handle.
                self.batch_calls += 1
                now, unfinished, reason, cid = batch_kernel(
                    next_service, unfinished
                )
                if reason == 1:
                    # Epoch/sample service due at ``now``; the kernel
                    # parked the in-flight core, so re-entry resumes it
                    # through the ordinary selection scan.
                    if now >= next_epoch:
                        self._repartition()
                        while now >= next_epoch:
                            next_epoch += epoch_cycles
                    if now >= next_sample:
                        self.samples += 1
                        self.size_series.sample(
                            int(now), self._target_lines(), cache.partition_sizes()
                        )
                        while now >= next_sample:
                            next_sample += sample_period
                    next_service = (
                        next_epoch if next_epoch < next_sample else next_sample
                    )
                    continue
                if reason == 2:
                    _refill(cid)
                    continue
                if reason == 3:
                    break
                # reason 4: core ``cid`` is not chunked -- fall through
                # and run one event through ``cache.access`` (the scan
                # below re-selects it).

            if use_heap:
                now, cid = heappop(heap)
                second = scid = None
            else:
                # Two-minimum scan: the runner-up (`second`, `scid`) is
                # what the continuation check compares against; strict
                # `<` keeps the lowest ID on ties in both minima,
                # matching (t, cid) heap order.
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

            chunk = chunked[cid]
            pos = positions[cid]
            limit = limits[cid]
            buf = bufs[cid]

            while True:
                if now >= next_service:
                    if now >= next_epoch:
                        self._repartition()
                        while now >= next_epoch:
                            next_epoch += epoch_cycles
                    if now >= next_sample:
                        self.samples += 1
                        self.size_series.sample(
                            int(now), self._target_lines(), cache.partition_sizes()
                        )
                        while now >= next_sample:
                            next_sample += sample_period
                    next_service = (
                        next_epoch if next_epoch < next_sample else next_sample
                    )

                if chunk:
                    if pos >= limit:
                        buf = _refill(cid)
                        limit = limits[cid]
                        pos = 0
                    gap = buf[pos]
                    addr = buf[pos + 1]
                    pos += 2
                else:
                    try:
                        gap, addr = nexts[cid]()
                    except StopIteration:
                        gap, addr = self._restart_trace(cid, iterators, nexts)

                count = instructions[cid] + gap + 1
                instructions[cid] = count
                t = now + gap + 1

                if l1s is not None and l1s[cid].access(addr):
                    # L1 hit: fully pipelined, no stall.
                    if collect:
                        l1_hits[cid] += 1
                else:
                    if observe is not None:
                        observe(cid, addr)
                    if cache_access(addr, cid):
                        t += hit_latency
                    else:
                        t += hit_latency + mem_request(addr, t)

                if count >= instructions_per_core and finished_at[cid] is None:
                    finished_at[cid] = t
                    instructions_at_finish[cid] = count
                    unfinished -= 1

                # Run continuation: keep executing this core while it
                # would be popped next anyway.
                if unfinished:
                    if use_heap:
                        head = heap[0]
                        second = head[0]
                        scid = head[1]
                    if t < second or (t == second and cid < scid):
                        now = t
                        continue
                break

            if chunk:
                positions[cid] = pos
            if use_heap:
                heappush(heap, (t, cid))
            else:
                times[cid] = t

        # Persist the loop's final per-core state so the stall-cycle
        # telemetry can be derived without any per-access accounting.
        if use_heap:
            for t, cid in heap:
                self._final_times[cid] = t
        else:
            self._final_times = list(times)
        self._instruction_counts = list(instructions)

        cores = [
            CoreResult(
                instructions=instructions_at_finish[cid],
                cycles=now,
                finished_at=finished_at[cid],
            )
            for cid in range(num_cores)
        ]
        miss_rates = [cache.stats.miss_rate(p) for p in range(cache.num_partitions)]
        return SystemResult(cores=cores, total_cycles=now, l2_miss_rates=miss_rates)
