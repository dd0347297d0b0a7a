"""Analytical fast-forward: skip converged epoch tails (``REPRO_FASTFWD``).

The paper's Sec 6.2 validation shows that once a partition's aperture
and churn stabilise, the Eq. 7 transfer function predicts Vantage's
behaviour without simulating it.  This module exploits that inside the
event loop: a :class:`ConvergenceDetector` watches per-partition
miss-rate / churn / aperture deltas over sliding sub-epoch windows
(cut into the batch-kernel dispatch as extra ``reason 1`` stops), and
once every partition is stable for ``K_WINDOWS`` consecutive windows,
:class:`FastForward` *replays* the rest of the epoch instead of
simulating it:

- the span is costed out in closed form first: the
  :class:`~repro.core.analytical.VantageModel` prices each core's
  remaining accesses (gap + hit latency + miss-rate-weighted memory
  latency with the window's mean queue delay) against the compiled
  chunk buffers (``segment_profile``) to find exactly which pairs fit
  before the epoch boundary, and the Eq. 7 transfer function
  cross-checks that the measured churn is still what the model
  predicts;
- *timing* state -- core clocks, instruction counters, memory
  requests and queueing -- then advances by those modelled costs
  without per-access event scheduling;
- *functional* state -- the line array, partition clocks, demotion /
  promotion / eviction registers, setpoints, and the sampled UMONs --
  advances by walking the skipped addresses through the cache's own
  transition functions, re-seeding the concrete footprint exactly at
  a fraction of a simulated access's cost;
- the skip ends at the next epoch (or size-sample) boundary, where
  the re-seeded concrete state resumes exact simulation.

Fast-forward is *opt-in* (``SimJob.fastfwd``, defaulting from
``REPRO_FASTFWD=1``): the default path stays bitwise-exact, and even when
enabled the layer declines any configuration whose extra state it
cannot model (shared-hit policies, L1 filtering, non-UCP observers,
non-chunked cores, caches without a parking batch kernel).
A tolerance of 0 selects detection-only mode: the detector and
planner run and log where a skip *would* happen, but every access is
still simulated.  A plan whose validation fails (per-core access
shares drifting from the converged window, or the measured churn
disagreeing with the Eq. 7 forecast) aborts back to exact simulation
with no state mutated.
"""

from __future__ import annotations

import heapq

from repro.traces.chunks import segment_profile

try:  # soft dependency: every numpy path has a scalar twin
    import numpy as _np
except ImportError:  # pragma: no cover - the container ships numpy
    _np = None

#: Sub-epoch detector windows per allocation epoch.
WINDOWS_PER_EPOCH = 16
#: Consecutive stable windows required before a skip.
K_WINDOWS = 2
#: Default detector tolerance: per-partition miss-rate / churn /
#: aperture window deltas within 2 %.
DEFAULT_TOL = 0.02
#: Detector tolerance used when ``REPRO_FASTFWD_TOL=0`` selects
#: detection-only mode (the tolerance itself must stay meaningful).
DETECT_TOL = 0.02
#: z-score of the binomial sampling-noise allowance added to the
#: tolerance: sub-epoch windows hold a few dozen accesses, so two
#: windows of the *same* converged process still differ by
#: O(sqrt(p(1-p)/n)); a fixed tolerance would either never fire at
#: realistic window sizes or be meaninglessly loose at large ones.
NOISE_Z = 2.5
#: Windows with fewer accesses than this are "quiet": they carry no
#: rate information, so they neither confirm nor break convergence.
MIN_WINDOW_ACCESSES = 16
#: Skips shorter than this are not worth the commit overhead.
MIN_SKIP_ACCESSES = 64
#: Max drift of a core's in-span access share vs its converged-window
#: share before the plan is rejected as de-converged.
SHARE_DRIFT = 0.10
#: Max relative disagreement between the window-scaled demotion count
#: and the Eq. 7 forecast before the plan is rejected.
MODEL_DRIFT = 0.75
#: Demotion-count floor below which the model-drift check is noise.
MODEL_DRIFT_FLOOR = 8
#: Pairs profiled per ``segment_profile`` block during planning.
_PROFILE_PAIRS = 512
_TS_MASK = 255

_INF = float("inf")


def _scaled(value: float) -> int:
    """Nearest-integer scaling for extrapolated counters."""
    return int(value + 0.5)


class ConvergenceDetector:
    """Declares an epoch tail converged after ``k`` consecutive stable
    windows.

    A window is *stable* when every partition's miss rate, churn rate
    (demotions per access) and aperture match the previous window's
    within tolerance.  Miss and churn are rates of a sampled process:
    their tolerance is ``tol`` plus a ``NOISE_Z``-sigma binomial
    allowance for the window sizes involved, so genuine convergence is
    recognised at realistic (few-dozen-access) windows without ever
    accepting a drift larger than the noise floor explains.  Apertures
    are deterministic registers and compare against ``tol`` alone.
    Quiet partitions (fewer than ``min_accesses`` accesses) carry no
    rate information: two quiet windows compare stable, but a
    partition flipping between quiet and active is a phase change and
    breaks the streak.  A target change (``set_allocations``) resets
    the baseline entirely -- the transfer function is about to move
    every aperture.
    """

    def __init__(
        self,
        num_partitions: int,
        tol: float = DETECT_TOL,
        k: int = K_WINDOWS,
        min_accesses: int = MIN_WINDOW_ACCESSES,
    ):
        if tol <= 0:
            raise ValueError("detector tol must be positive")
        if k < 1:
            raise ValueError("k must be >= 1")
        self.num_partitions = num_partitions
        self.tol = tol
        self.k = k
        self.min_accesses = min_accesses
        self.streak = 0
        self._prev: list[tuple[float, float, float, int] | None] | None = None
        self._targets: tuple[int, ...] | None = None

    def reset(self) -> None:
        self.streak = 0
        self._prev = None

    def _rates_match(self, ra, na, rb, nb) -> bool:
        """Two rate estimates agree within tol + NOISE_Z sigmas of the
        pooled binomial standard error."""
        pooled = (ra * na + rb * nb) / (na + nb)
        if pooled < 0.0:
            pooled = 0.0
        elif pooled > 1.0:
            pooled = 1.0
        sigma = (pooled * (1.0 - pooled) * (1.0 / na + 1.0 / nb)) ** 0.5
        return abs(ra - rb) <= self.tol + NOISE_Z * sigma

    def observe(self, accesses, misses, demotions, apertures, targets) -> bool:
        """Feed one window's per-partition deltas; True when the streak
        reaches ``k`` (the tail is converged)."""
        targets = tuple(targets)
        if targets != self._targets:
            self._targets = targets
            self.reset()
        rates: list[tuple[float, float, float, int] | None] = []
        for p in range(self.num_partitions):
            a = accesses[p]
            if a < self.min_accesses:
                rates.append(None)
            else:
                rates.append(
                    (misses[p] / a, demotions[p] / a, apertures[p], a)
                )
        prev = self._prev
        self._prev = rates
        if prev is None:
            self.streak = 0
            return False
        stable = True
        for p in range(self.num_partitions):
            a = prev[p]
            b = rates[p]
            if a is None and b is None:
                continue
            if a is None or b is None:
                stable = False
                break
            if (
                not self._rates_match(a[0], a[3], b[0], b[3])
                or not self._rates_match(a[1], a[3], b[1], b[3])
                or abs(a[2] - b[2]) > self.tol
            ):
                stable = False
                break
        self.streak = self.streak + 1 if stable else 0
        return self.streak >= self.k


class FastForward:
    """Window stream + model replay over one ``CMPSystem.run``.

    Built by :meth:`CMPSystem.run` after the batch kernel; holds the
    run's *live* scheduler state by reference (cursors, instruction
    counters, core times), exactly like the kernels do.  When the
    configuration is not modellable, ``enabled`` is False and
    ``decline_reason`` says why -- the run proceeds exactly as without
    the layer.
    """

    def __init__(
        self,
        system,
        kernel,
        chunked,
        bufs,
        positions,
        limits,
        instructions,
        finished_at,
        times,
        heap,
        target: int,
        tol: float,
    ):
        self.system = system
        self.cache = system.cache
        self.policy = system.policy
        self.memory = system.memory
        self.config = system.config
        self._bufs = bufs
        self._positions = positions
        self._limits = limits
        self._instructions = instructions
        self._finished_at = finished_at
        self._times = times
        self._heap = heap
        self._target = target
        self.detect_only = tol == 0
        self.window_cycles = system.config.epoch_cycles / WINDOWS_PER_EPOCH
        self.next_window = self.window_cycles
        self.window_index = 0
        self.windows = 0
        self.triggers = 0
        self.skips = 0
        self.aborts = 0
        self.skipped_accesses = 0
        self.would_skip_accesses = 0
        self.events: list[dict] = []
        self._snapshot = None
        self._stable_base = None
        self._epoch_done = False
        self._free_slots: list[int] | None = None
        self._np_views = None
        self.last_decline: str | None = None
        self.model = None
        self.decline_reason = self._eligibility(kernel, chunked)
        self.enabled = self.decline_reason is None
        if not self.enabled:
            return
        self.monitors = self.policy.monitors
        self.detector = ConvergenceDetector(
            self.cache.num_partitions,
            tol=tol if tol > 0 else DETECT_TOL,
        )

    # ------------------------------------------------------------------
    # Eligibility.
    # ------------------------------------------------------------------

    def _eligibility(self, kernel, chunked) -> str | None:
        """Why this run cannot be fast-forwarded, or None when it can.

        Everything the replay extrapolates must be the *whole* state
        the skipped accesses would have touched; any collaborator with
        state the model does not cover declines the layer (honestly,
        via ``decline_reason``) rather than silently diverging.
        """
        from repro.allocation.ucp import UCPPolicy

        system = self.system
        cache = self.cache
        policy = self.policy
        if kernel is None:
            return "no batch kernel (REPRO_FUSED=0, a hook installed, or unsupported cache)"
        if not getattr(kernel, "parks_state", False):
            return "batch kernel does not guarantee parked state at service stops"
        builder = getattr(cache, "model_for_fastfwd", None)
        model = builder() if builder is not None else None
        if model is None:
            return (
                f"{type(cache).__name__} has no transfer-function model "
                f"(stock VantageCache only)"
            )
        self.model = model
        if getattr(cache, "shared_policy", None) is not None:
            return "shared-hit policy installed (requester/owner split not modelled)"
        if system.l1s is not None:
            return "L1 filtering enabled (L1 state not modelled)"
        if policy is None:
            return "no allocation policy (no epochs to fast-forward within)"
        if not isinstance(policy, UCPPolicy) or type(policy).observe is not UCPPolicy.observe:
            return "policy observer not modellable (needs stock UCPPolicy.observe)"
        num_cores = system.config.num_cores
        if cache.num_partitions != num_cores or len(policy.monitors) != num_cores:
            return "requester/partition identity does not hold (cores != partitions)"
        if not all(chunked):
            return "not all cores on the compiled-chunk path"
        return None

    # ------------------------------------------------------------------
    # Window stream.
    # ------------------------------------------------------------------

    def on_epoch(self, now: float) -> None:
        """An allocation epoch was just serviced: restart the window
        grid from here and drop all convergence evidence (the new
        targets invalidate it anyway)."""
        self.window_index = 0
        self._epoch_done = False
        self.next_window = now + self.window_cycles
        self._snapshot = None
        self._stable_base = None
        if self.enabled:
            self.detector.reset()

    def on_window(self, now: float, next_epoch: float, next_sample: float) -> None:
        """A window boundary fired inside the epoch: measure, detect,
        and -- when converged -- plan and (unless detection-only)
        commit a model replay of the rest of the epoch."""
        while self.next_window <= now:
            self.next_window += self.window_cycles
        self.windows += 1
        self.window_index += 1
        prev = self._snapshot
        cur = self._snapshot_counters()
        self._snapshot = cur
        if prev is None:
            self._stable_base = cur
            return
        if self._epoch_done:
            return
        cache = self.cache
        delta = self._delta(cur, prev)
        apertures = [
            self.model.aperture(cache.actual_size[p], cache.target[p])
            for p in range(cache.num_partitions)
        ]
        fired = self.detector.observe(
            delta["acc"], delta["misses"], delta["dem"], apertures, cache.target
        )
        if self.detector.streak == 0:
            # The measured window broke the streak: the stable region
            # restarts at that window's start (its rates are the new
            # comparison baseline).
            self._stable_base = prev
        if not fired:
            return
        self.triggers += 1
        # Plan and extrapolate from the *pooled* stable region (the
        # baseline window plus the whole streak), not the last window
        # alone: the pooled rates carry several times the samples, and
        # sampling noise in the extrapolated rates is what costs
        # accuracy over a long skip.
        pooled = self._delta(cur, self._stable_base)
        plan = self._plan(now, next_epoch, next_sample, pooled)
        if plan is None:
            self.aborts += 1
            self._record("abort", now, 0)
            self.detector.reset()
            return
        if self.detect_only:
            self._epoch_done = True
            self.would_skip_accesses += plan["n_total"]
            self._record("detect", now, plan["n_total"])
            return
        self._commit(plan)
        self.skips += 1
        self.skipped_accesses += plan["n_total"]
        self._record("skip", now, plan["n_total"])
        # Nothing left to detect in this epoch: jump the window grid to
        # the skip boundary so the next stop is the epoch service.
        self.next_window = plan["boundary"]
        self.detector.reset()
        self._snapshot = None

    def _record(self, action: str, now: float, accesses: int) -> None:
        self.events.append(
            {
                "action": action,
                "epoch": self.system.epochs,
                "window": self.window_index,
                "cycle": now,
                "accesses": accesses,
                "reason": self.last_decline if action == "abort" else None,
            }
        )

    def _delta(self, cur: dict, base: dict) -> dict:
        """Counter deltas ``cur - base`` with ``_snapshot_counters``'s
        key structure."""
        num = self.cache.num_partitions
        delta = {
            key: [cur[key][p] - base[key][p] for p in range(num)]
            for key in ("acc", "misses", "dem", "mon")
        }
        delta["mem_req"] = cur["mem_req"] - base["mem_req"]
        delta["mem_q"] = cur["mem_q"] - base["mem_q"]
        return delta

    def _snapshot_counters(self) -> dict:
        cache = self.cache
        st = cache.stats
        mem = self.memory
        return {
            "acc": list(st.accesses),
            "misses": list(st.misses),
            "dem": list(cache.demotions),
            "mon": [m.accesses for m in self.monitors],
            "mem_req": mem.requests,
            "mem_q": mem.total_queue_cycles,
        }

    # ------------------------------------------------------------------
    # Planning: how far can the model carry us, and should it?
    # ------------------------------------------------------------------

    def _core_times(self) -> list[float]:
        heap = self._heap
        if heap is None:
            return list(self._times)
        times = [0.0] * self.config.num_cores
        for t, cid in heap:
            times[cid] = t
        return times

    def _plan(self, now, next_epoch, next_sample, delta) -> dict | None:
        """Cost out the skip span per core against the converged
        window's rates; None (with ``last_decline`` set) when the span
        is not modellable.  Pure: touches no simulator state, so a
        declined plan *is* the abort-to-exact-simulation path."""
        self.last_decline = None
        boundary = next_epoch if next_epoch < next_sample else next_sample
        if boundary == _INF:
            self.last_decline = "no epoch or sample boundary to skip to"
            return None
        if boundary - now < self.window_cycles:
            self.last_decline = "epoch tail shorter than one window"
            return None
        w_acc = delta["acc"]
        w_total = sum(w_acc)
        if w_total <= 0:
            self.last_decline = "converged window had no accesses"
            return None
        dreq = delta["mem_req"]
        qbar = delta["mem_q"] / dreq if dreq > 0 else 0.0
        hit_latency = self.config.l2_hit_latency
        mem_latency = self.memory.latency
        cache = self.cache
        num_cores = self.config.num_cores
        target = self._target
        times = self._core_times()
        finished_at = self._finished_at
        instructions = self._instructions
        bufs, positions, limits = self._bufs, self._positions, self._limits

        ns = [0] * num_cores
        gaps = [0] * num_cores
        t_end = [0.0] * num_cores
        pos_end = [0] * num_cores
        rates = [0.0] * num_cores
        capped = [False] * num_cores
        for cid in range(num_cores):
            t = times[cid]
            a = w_acc[cid]
            m = delta["misses"][cid] / a if a > 0 else 1.0
            rates[cid] = m
            cost = 1.0 + hit_latency + m * (mem_latency + qbar)
            buf = bufs[cid]
            pos = positions[cid]
            limit = limits[cid]
            # Instructions advance by gap+1 per access, and crossing
            # the finish line must happen in exact simulation (finish
            # times are reported, not modelled): cap this core's walk
            # one access short of its remaining budget.  A capped core
            # simply ends its span early and resumes exact simulation
            # from there; the other cores still replay to the boundary.
            # Cores that already finished keep executing for contention
            # (the run ends only when *every* core crosses), so their
            # post-finish accesses replay without a cap.
            budget = (
                target - instructions[cid]
                if finished_at[cid] is None
                else _INF
            )
            n = 0
            g_sum = 0
            while t < boundary and pos < limit:
                pairs, gsum = segment_profile(buf, pos, limit, _PROFILE_PAIRS)
                est = gsum + pairs * cost
                if t + est < boundary and g_sum + n + gsum + pairs < budget:
                    t += est
                    n += pairs
                    g_sum += gsum
                    pos += 2 * pairs
                    continue
                end = pos + 2 * pairs
                while pos < end and t < boundary:
                    g = buf[pos]
                    if g_sum + n + g + 1 >= budget:
                        capped[cid] = True
                        break
                    t += g + cost
                    g_sum += g
                    n += 1
                    pos += 2
                break
            ns[cid] = n
            gaps[cid] = g_sum
            t_end[cid] = t
            pos_end[cid] = pos

        n_total = sum(ns)
        if n_total < MIN_SKIP_ACCESSES:
            self.last_decline = "span too small to be worth replaying"
            return None
        # De-convergence check: each core's in-span access share must
        # still match its converged-window share.  Cores whose walk
        # ended early for a structural reason -- finish-line cap or an
        # exhausted trace -- are excluded on both sides (their short
        # span is legitimate, and leaving them in would skew everyone
        # else's share).
        drifting = [
            cid
            for cid in range(num_cores)
            if not capped[cid] and pos_end[cid] < limits[cid]
        ]
        d_total = sum(ns[cid] for cid in drifting)
        dw_total = sum(w_acc[cid] for cid in drifting)
        if d_total > 0 and dw_total > 0:
            for cid in drifting:
                if abs(ns[cid] / d_total - w_acc[cid] / dw_total) > SHARE_DRIFT:
                    self.last_decline = (
                        f"core {cid} access share drifted from the "
                        f"converged window"
                    )
                    return None
        misses = [
            min(ns[p], _scaled(ns[p] * rates[p])) for p in range(num_cores)
        ]
        total_misses = sum(misses)
        # A partition whose converged window missed on *every* access
        # is streaming: its addresses are one-touch, so its sampled
        # UMON stacks can never produce a hit and only the sampled
        # access *count* (already rate-measurable from the window)
        # feeds its flat utility curve.  Its replay may therefore skip
        # per-address sample classification and advance the monitor
        # statistically -- the expensive part of a streaming replay.
        streaming = [
            w_acc[p] > 0 and delta["misses"][p] == w_acc[p]
            for p in range(num_cores)
        ]
        mon_rates = [
            delta["mon"][p] / w_acc[p] if w_acc[p] > 0 else 0.0
            for p in range(num_cores)
        ]
        model = self.model
        num_lines = cache.num_lines
        # Eq. 7 describes steady state in a *full* cache: while lines
        # remain free, misses install without demoting or evicting
        # anyone, so measured churn is legitimately zero regardless of
        # the forecast.  Only cross-check the model once the planned
        # misses would exhaust the free lines.
        free = num_lines - sum(cache.actual_size) - cache.unmanaged_size
        check_model = free < total_misses
        for p in range(num_cores):
            if not check_model:
                break
            if ns[p] == 0 or w_acc[p] == 0:
                continue
            fc = model.forecast(
                ns[p],
                rates[p],
                cache.actual_size[p],
                cache.target[p],
                num_lines,
                walk_misses=total_misses,
            )
            measured = delta["dem"][p] * (ns[p] / w_acc[p])
            hi = fc.demotions if fc.demotions > measured else measured
            if hi > MODEL_DRIFT_FLOOR:
                if abs(fc.demotions - measured) / hi > MODEL_DRIFT:
                    self.last_decline = (
                        f"partition {p} churn disagrees with the Eq. 7 forecast"
                    )
                    return None
        return {
            "boundary": boundary,
            "n": ns,
            "gaps": gaps,
            "t0": times,
            "t_end": t_end,
            "pos_end": pos_end,
            "misses": misses,
            "total_misses": total_misses,
            "qbar": qbar,
            "n_total": n_total,
            "w_total": w_total,
            "streaming": streaming,
            "mon_rates": mon_rates,
        }

    # ------------------------------------------------------------------
    # Commit: deposit the planned span into the concrete state.
    # ------------------------------------------------------------------

    def _commit(self, plan: dict) -> None:
        """Apply the span.  The split of labour is the tentpole's core
        trade:

        - *Functional* state -- the line array, partition clocks,
          demotion/promotion/eviction registers, setpoints and the
          sampled UMONs -- is advanced by replaying the skipped
          addresses through the cache's own transition
          (:meth:`_replay_core`).  This re-seeds the concrete footprint
          exactly, so post-resume behaviour does not inherit holes
          from the skip; without it, unsimulated installs compound
          into miss-rate drift far beyond the accuracy contract.
        - *Timing* state -- core clocks, instruction counters, memory
          requests/queueing -- is advanced in closed form from the
          converged window's rates (the expensive part of exact
          simulation, and the part the transfer-function model
          predicts well once stable).
        """
        cache = self.cache
        positions = self._positions
        num_cores = self.config.num_cores
        ns = plan["n"]
        qbar = plan["qbar"]
        hit_latency = self.config.l2_hit_latency
        mem_latency = self.memory.latency
        t0 = plan["t0"]
        t_end = plan["t_end"]
        total_misses = 0
        for cid in range(num_cores):
            if ns[cid]:
                core_misses = self._replay_core(
                    cid,
                    positions[cid],
                    plan["pos_end"][cid],
                    plan["streaming"][cid],
                    plan["mon_rates"][cid],
                )
                total_misses += core_misses
                # Re-price the core's clock with the *exact* miss count
                # the walk produced: the plan's rate-based estimate only
                # decided how many pairs fit before the boundary, and
                # repaying at the estimated rate would let estimation
                # error (e.g. a cold-start-biased window) leak into
                # finish times.
                t_end[cid] = (
                    t0[cid]
                    + plan["gaps"][cid]
                    + ns[cid] * (1.0 + hit_latency)
                    + core_misses * (mem_latency + qbar)
                )

        # Memory: the replayed misses issued at the window's mean queue
        # delay (already charged above), so the controllers only need
        # to look busy up to the *earliest* point any replayed core
        # resumes exact simulation -- bumping them to the latest span
        # end would make an early-resuming core's first misses queue
        # behind traffic that exact simulation would have interleaved
        # them with.  Contention after that point re-emerges naturally
        # from the simulated request stream.
        mem = self.memory
        mem.requests += total_misses
        mem.total_queue_cycles += _scaled(total_misses * qbar)
        t_resume = min(t_end[cid] for cid in range(num_cores) if ns[cid])
        free_at = mem._free_at
        for k in range(len(free_at)):
            if free_at[k] < t_resume:
                free_at[k] = t_resume

        # Scheduler: park every core at its modelled time with its
        # cursor past the skipped pairs (mirrors the kernels' park
        # contract, so re-entry needs no special case).
        instructions = self._instructions
        t_end = plan["t_end"]
        gaps = plan["gaps"]
        for cid in range(num_cores):
            instructions[cid] += gaps[cid] + ns[cid]
            positions[cid] = plan["pos_end"][cid]
        heap = self._heap
        if heap is None:
            times = self._times
            for cid in range(num_cores):
                times[cid] = t_end[cid]
        else:
            heap[:] = [(t_end[cid], cid) for cid in range(num_cores)]
            heapq.heapify(heap)

    def _bulk_install(self, p: int, addrs: list) -> bool:
        """Vectorized install of a pure-miss span (caller verified
        every address is distinct and absent): pop a validated free
        slot per address, then write the tag / owner / timestamp
        columns with numpy fancy assignment into views over the
        ``array("q")`` buffers.  Slot choice skips the own-position
        scan the scalar path tries first -- like the free-list
        fallback there, any free slot is statistically equivalent in
        a zcache.  The partition clock replays the exact tick
        sequence, and per-slot position wiring stays scalar (tuple
        slices).  Returns False with no state touched when the
        validated free slots run short; the scalar walk then handles
        the span (including its full-cache fallback)."""
        cache = self.cache
        array = cache.array
        tags = array._tags
        free = self._free_slots
        n = len(addrs)
        if n == 0:
            # Nothing to install; the register rewrite below must not
            # run (the scalar loop would have left state untouched).
            return True
        slots: list[int] = []
        ap = slots.append
        while free and len(slots) < n:
            s = free.pop()
            if tags[s] < 0:
                ap(s)
        if len(slots) < n:
            # Too few free lines left: hand the validated slots back
            # (order is immaterial) and let the scalar walk take over.
            free.extend(slots)
            return False
        views = self._np_views
        if views is None:
            views = self._np_views = (
                _np.frombuffer(tags, dtype=_np.int64),
                _np.frombuffer(cache.part_of, dtype=_np.int64),
                _np.frombuffer(cache.line_ts, dtype=_np.int64),
            )
        tags_np, part_np, ts_np = views
        slots_arr = _np.array(slots, dtype=_np.int64)
        tags_np[slots_arr] = _np.asarray(addrs, dtype=_np.int64)
        part_np[slots_arr] = p
        # Partition clock: replay the exact tick sequence the scalar
        # install loop would produce.  Every install grows the size,
        # so the period is recomputed each step as
        # ``P(i) = (size0 + i + 1) >> 4 or 1`` and the clock ticks when
        # the running count reaches it.  The clock value is constant
        # between ticks and a span holds only a handful of ticks
        # (count gains one per install, P one per sixteen), so the
        # walk jumps tick-to-tick and stamps whole stretches at once
        # instead of iterating per install.
        cts = cache.current_ts
        counters = cache.access_counter
        tick_size = cache._tick_size
        tick_period = cache._tick_period
        actual = cache.actual_size
        my_cts = cts[p]
        count = counters[p]
        size = actual[p]
        j = 0
        while j < n:
            # Next tick: smallest m >= 1 with count + m >= P(j + m - 1).
            # Both sides are nondecreasing in m and the left grows
            # strictly faster, so the fixed-point search below takes a
            # step or two.
            m = max(1, ((size + j + 1) >> 4 or 1) - count)
            while True:
                need = (size + j + m) >> 4 or 1
                if count + m >= need:
                    break
                m = need - count
            if j + m > n:
                # The span ends before the next tick.
                ts_np[slots_arr[j:]] = my_cts
                count += n - j
                break
            ts_np[slots_arr[j : j + m]] = my_cts
            my_cts = (my_cts + 1) & _TS_MASK
            count = 0
            j += m
        size += n
        cts[p] = my_cts
        counters[p] = count
        actual[p] = size
        tick_size[p] = size
        tick_period[p] = size >> 4 or 1
        # Structural wiring: each line's other candidate positions.
        pcache_get = array._position_cache.get
        positions = array.positions
        pbs = array._pos_by_slot
        num_sets = array.num_sets
        for addr, slot in zip(addrs, slots):
            pos = pcache_get(addr)
            if pos is None:
                pos = positions(addr)
            way = slot // num_sets
            pbs[slot] = pos[:way] + pos[way + 1 :]
        array._slot_of.update(zip(addrs, slots))
        return True

    def _free_list(self) -> list[int]:
        """Slots currently holding no line.  Built at most once per
        run: occupancy never shrinks (an eviction's slot is re-used by
        the same install), so stale entries can only be slots that
        have since been *filled*, which the consumer re-checks."""
        tags = self.cache.array._tags
        if _np is None:
            return [s for s, t in enumerate(tags) if t < 0]
        arr = _np.frombuffer(tags, dtype=_np.int64)
        return _np.flatnonzero(arr < 0).tolist()

    def _replay_core(
        self,
        p: int,
        start: int,
        end: int,
        streaming: bool = False,
        mon_rate: float = 0.0,
    ) -> int:
        """Walk one core's skipped ``(gap, addr)`` pairs through the
        cache's functional transition; returns the exact miss count.

        Everything the replay *doesn't* do (per-access timing,
        memory-controller queueing, event-heap scheduling, kernel
        dispatch) is exactly the expensive part of a simulated access,
        so both hot paths are inlined:

        - an own-partition LRU hit is a dict lookup, a timestamp stamp
          and the partition clock tick;
        - a miss while free lines remain installs at the first empty
          slot among the address's own hash positions, or -- when all
          are occupied -- at an arbitrary free slot.  A real zcache
          walk would have relocated lines to reach *some* empty slot;
          which one is immaterial, because zcache candidates behave as
          a uniform sample of the array (the property Vantage's own
          analysis rests on), so the replacement statistics the
          post-resume simulation sees are unchanged.

        Misses in a full cache and foreign-owner hits fall back to the
        cache's real ``_miss``/``_hit`` methods, so replacement walks,
        demotions, setpoint feedback and eviction accounting stay the
        simulator's own.  Sampled-UMON state is advanced with the real
        monitor, so the next epoch's Lookahead allocation sees exact
        way counters.
        """
        cache = self.cache
        array = cache.array
        slot_of = array._slot_of
        lookup = slot_of.get
        tags = array._tags
        pbs = array._pos_by_slot
        num_sets = array.num_sets
        pcache_get = array._position_cache.get
        positions = array.positions
        part_of = cache.part_of
        line_ts = cache.line_ts
        cts = cache.current_ts
        counters = cache.access_counter
        tick_size = cache._tick_size
        tick_period = cache._tick_period
        actual = cache.actual_size
        miss = cache._miss
        hit = cache._hit
        if streaming:
            # Pure-miss span: skip per-address sample classification
            # entirely (the monitor is advanced statistically below).
            sample_get = None
            mon_access = None
        else:
            mon = self.monitors[p]
            # Classify the whole span in bulk so the walk below only
            # calls into the monitor for genuinely sampled accesses
            # (identical decisions, computed vectorized; first-touch
            # classification-only calls would otherwise dominate the
            # walk on install-heavy cores).
            mon.prime_sample_cache(self._bufs[p][start + 1 : end : 2])
            sample_get = self.policy._sample_gets[p]
            mon_access = mon.access
        buf = self._bufs[p]
        free = self._free_slots
        if streaming and _np is not None:
            # A streaming span whose addresses are all distinct and all
            # absent is pure installs: no lookup outcome to branch on,
            # so the install columns can be written vectorized.  Both
            # preconditions are checked exactly (C-speed set algebra);
            # any re-reference or resident address falls through to the
            # scalar walk below.
            addr_list = buf[start + 1 : end : 2]
            n = len(addr_list)
            if free is None:
                free = self._free_slots = self._free_list()
            if len(free) >= n:
                addr_set = set(addr_list)
                if len(addr_set) == n and not (addr_set & slot_of.keys()):
                    if self._bulk_install(p, addr_list):
                        st = cache.stats
                        st.accesses[p] += n
                        st.misses[p] += n
                        self.monitors[p].model_advance(
                            _scaled(n * mon_rate), ()
                        )
                        self.policy.observed[p] += n
                        return n
        hits = 0
        misses = 0
        observed = 0
        # The whole walk is one partition: its clock/tick registers
        # live in locals for the loop and flush back at the end (and
        # around the rare ``_hit``/``_miss`` fallbacks, which mutate
        # the same registers on the cache object).
        my_cts = cts[p]
        count = counters[p]
        size = actual[p]
        t_size = tick_size[p]
        t_period = tick_period[p]
        for addr in buf[start + 1 : end : 2]:
            slot = lookup(addr)
            if slot is not None:
                if part_of[slot] == p:
                    # Inlined stock-LRU hit + _tick: stamp and clock.
                    line_ts[slot] = my_cts
                    count += 1
                    if size != t_size:
                        t_size = size
                        t_period = size >> 4 or 1
                    if count >= t_period:
                        count = 0
                        my_cts = (my_cts + 1) & _TS_MASK
                else:
                    # Promotion or foreign-owner hit: rare, take the
                    # cache's own path (flush/reload the registers it
                    # shares with this loop).
                    cts[p] = my_cts
                    counters[p] = count
                    actual[p] = size
                    tick_size[p] = t_size
                    tick_period[p] = t_period
                    hit(slot, p)
                    my_cts = cts[p]
                    count = counters[p]
                    size = actual[p]
                    t_size = tick_size[p]
                    t_period = tick_period[p]
                hits += 1
                if sample_get is not None and sample_get(addr, -1) is not None:
                    observed += 1
                    mon_access(addr)
                continue
            misses += 1
            pos = pcache_get(addr)
            if pos is None:
                pos = positions(addr)
            way = 0
            slot = -1
            for s in pos:
                if tags[s] < 0:
                    slot = s
                    break
                way += 1
            if slot < 0:
                if free is None:
                    free = self._free_list()
                while free:
                    s = free.pop()
                    if tags[s] < 0:
                        slot = s
                        way = s // num_sets
                        break
            if slot < 0:
                # No free line anywhere: full-cache replacement walk.
                cts[p] = my_cts
                counters[p] = count
                actual[p] = size
                tick_size[p] = t_size
                tick_period[p] = t_period
                miss(addr, p)
                my_cts = cts[p]
                count = counters[p]
                size = actual[p]
                t_size = tick_size[p]
                t_period = tick_period[p]
            else:
                tags[slot] = addr
                slot_of[addr] = slot
                pbs[slot] = pos[:way] + pos[way + 1 :]
                part_of[slot] = p
                line_ts[slot] = my_cts
                size += 1
                count += 1
                if size != t_size:
                    t_size = size
                    t_period = size >> 4 or 1
                if count >= t_period:
                    count = 0
                    my_cts = (my_cts + 1) & _TS_MASK
            if sample_get is not None and sample_get(addr, -1) is not None:
                observed += 1
                mon_access(addr)
        cts[p] = my_cts
        counters[p] = count
        actual[p] = size
        tick_size[p] = t_size
        tick_period[p] = t_period
        self._free_slots = free
        st = cache.stats
        st.accesses[p] += hits + misses
        st.hits[p] += hits
        st.misses[p] += misses
        if streaming:
            # One-touch addresses are all unclassified, so the exact
            # path would have "observed" every one; of those, the
            # window's measured sampling rate fell into the monitor.
            # The sampled addrs can never hit (no re-reference), so
            # position_hits stays untouched and the flat miss curve
            # Lookahead reads keeps its modelled scale.
            n = hits + misses
            observed = n
            self.monitors[p].model_advance(_scaled(n * mon_rate), ())
        self.policy.observed[p] += observed
        return misses

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------

    def skipped_fraction(self) -> float:
        """Fraction of all L2 accesses that were replayed, not
        simulated (modelled accesses are part of the total)."""
        total = sum(self.cache.stats.accesses)
        return self.skipped_accesses / total if total else 0.0

    def would_skip_fraction(self) -> float:
        """Detection-only twin of :meth:`skipped_fraction`: fraction
        that *would* have been replayed (all were simulated)."""
        total = sum(self.cache.stats.accesses)
        return self.would_skip_accesses / total if total else 0.0
