"""Utility-based cache partitioning: the Lookahead algorithm (UCP [19]).

Given each partition's miss-versus-allocation curve, Lookahead
repeatedly grants capacity to the partition with the best *marginal
utility per unit*: for every partition it finds the window size ``k``
maximising ``(misses(a) - misses(a + k)) / k`` and gives the winner
its whole window.  Considering windows (not single units) lets the
algorithm see past plateaus in non-convex miss curves -- the reason
the UCP paper prefers it to greedy hill-climbing.

The same routine allocates ways for way-partitioning/PIPP and
256-point line-granularity budgets for Vantage; only the unit differs.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro import lazy


def lookahead_allocate(
    curves: Sequence[Sequence[float]],
    total_units: int,
    min_units: int = 0,
) -> list[int]:
    """Partition ``total_units`` of capacity among len(curves) owners.

    ``curves[p][a]`` is partition ``p``'s miss count when allocated
    ``a`` units; each curve must have at least ``total_units + 1``
    points (use :func:`repro.allocation.umon.interpolate_curve` to
    resample).  Every partition receives at least ``min_units``.
    """
    n = len(curves)
    if n == 0:
        return []
    if min_units * n > total_units:
        raise ValueError("min_units * partitions exceeds total_units")
    for p, curve in enumerate(curves):
        if len(curve) < total_units + 1:
            raise ValueError(
                f"curve {p} has {len(curve)} points; needs {total_units + 1}"
            )
    alloc = [min_units] * n
    balance = total_units - min_units * n

    # The windowed scan is the allocator's hot loop (up to
    # ``total_units`` candidate windows per partition per round).  The
    # vectorized variant computes the identical IEEE expression
    # ``(misses(a) - misses(a+k)) / k`` -- true division, no
    # reciprocal-multiply -- and ``argmax`` returns the first maximum,
    # matching the scalar loop's strict ``>`` update, so allocations
    # are bitwise-identical on both paths (``tests/allocation/
    # test_ucp.py`` asserts as much).  ``lazy.load_numpy`` decides
    # which one runs.
    np_curves = ks = None
    np = lazy.load_numpy()
    if np is not None:
        np_curves = [np.asarray(curve, dtype=np.float64) for curve in curves]
        ks = np.arange(1.0, total_units + 1.0)

    def best_window(p: int, limit: int) -> tuple[float, int]:
        """Best marginal utility per unit for partition p, looking
        ahead at most `limit` units."""
        a = alloc[p]
        if np_curves is not None:
            curve = np_curves[p]
            r = (curve[a] - curve[a + 1 : a + limit + 1]) / ks[:limit]
            k = int(r.argmax())
            rate = float(r[k])
            if rate > 0.0:
                return rate, k + 1
            return 0.0, 0
        misses_now = curves[p][a]
        curve = curves[p]
        rate, k_best = 0.0, 0
        for k in range(1, limit + 1):
            r = (misses_now - curve[a + k]) / k
            if r > rate:
                rate, k_best = r, k
        return rate, k_best

    # Cache each partition's best window; it only changes when the
    # partition wins units or the remaining balance shrinks below the
    # cached window size.
    cached: list[tuple[float, int] | None] = [None] * n
    while balance > 0:
        best_part = -1
        best_rate = 0.0
        best_k = 1
        for p in range(n):
            limit = min(balance, total_units - alloc[p])
            if limit <= 0:
                continue
            entry = cached[p]
            if entry is None or entry[1] > limit:
                entry = best_window(p, limit)
                cached[p] = entry
            rate, k = entry
            if k and rate > best_rate:
                best_rate = rate
                best_part = p
                best_k = k
        if best_part < 0:
            # No partition gains anything: spread the remainder round
            # robin (UCP always assigns every unit).
            p = 0
            while balance > 0:
                if alloc[p] < total_units:
                    alloc[p] += 1
                    balance -= 1
                p = (p + 1) % n
            break
        alloc[best_part] += best_k
        balance -= best_k
        cached[best_part] = None
    return alloc


class UCPPolicy:
    """Epoch-driven UCP allocation over a set of UMONs.

    Parameters
    ----------
    monitors:
        One :class:`~repro.allocation.umon.UMonitor` per partition.
    total_units:
        Units to distribute (ways, or line-granularity points).
    min_units:
        Floor per partition (1 way for way-partitioning and PIPP,
        which cannot express empty partitions).
    granularity:
        Points to interpolate each UMON curve to before running
        Lookahead; ``None`` keeps way granularity.  The paper uses
        256 for Vantage.
    """

    def __init__(
        self,
        monitors,
        total_units: int,
        min_units: int = 1,
        granularity: int | None = None,
    ):
        self.monitors = list(monitors)
        self.total_units = total_units
        self.min_units = min_units
        self.granularity = granularity
        # Per-monitor set-index hashes and sampling periods for
        # observe()'s early exit (the monitors list never changes after
        # construction).  Every monitor implements the SampledMonitor
        # interface, so there is exactly one reporting path.
        self._hashes = [m._hash for m in self.monitors]
        self._periods = [m._period for m in self.monitors]
        self.observed = [0] * len(self.monitors)
        self.last_allocation: list[int] = []

    def observe(self, part: int, addr: int, set_index: int | None = None) -> None:
        """Report partition ``part``'s access to ``addr``.

        ``set_index`` is the address's entry in the monitor's index
        column (the kernel lane); without it the address is hashed
        here (the object lane).  The vast majority of accesses fall
        outside the sampled sets and skip the monitor call.
        """
        if set_index is None:
            set_index = self._hashes[part](addr)
        if set_index % self._periods[part]:
            return
        self.observed[part] += 1
        self.monitors[part].access(addr, set_index)

    def allocate(self) -> list[int]:
        """Compute this epoch's allocation and decay the monitors."""
        from repro.allocation.umon import interpolate_curve

        curves = []
        for mon in self.monitors:
            curve = mon.miss_curve()
            if self.granularity is not None:
                curve = interpolate_curve(curve, self.granularity)
            curves.append(curve)
        units = lookahead_allocate(
            curves,
            self.granularity if self.granularity is not None else self.total_units,
            self.min_units,
        )
        if self.granularity is not None:
            # Scale granularity points to actual units (lines).
            scale = self.total_units / self.granularity
            units = [int(u * scale) for u in units]
        for mon in self.monitors:
            mon.epoch_reset()
        self.last_allocation = list(units)
        return units

    def register_stats(self, group) -> None:
        """Register UCP and per-partition monitor telemetry."""
        group.stat(
            "observed",
            lambda: list(self.observed),
            "per-partition sampled accesses forwarded to the monitors",
        )
        group.stat(
            "last_allocation",
            lambda: list(self.last_allocation),
            "most recent allocation, in units",
        )
        monitors = group.group("monitors", "per-partition utility monitors")
        for i, mon in enumerate(self.monitors):
            mon.register_stats(monitors.group(f"part_{i}"))


class ReuseAwareUCPPolicy(UCPPolicy):
    """UCP over private/shared split curves (shared-address mixes).

    Sampled accesses are classified by comparing the requesting
    partition against the address's *first-touch* partition: an access
    to a line another partition touched first is shared reuse.  Each
    :class:`~repro.allocation.umon.ReuseUMonitor` tracks its shared
    subset, and Lookahead runs over the per-partition private curves
    plus one pooled shared pseudo-curve; the pseudo-partition's units
    are then folded back proportionally to each partition's shared
    observation volume, so capacity that serves shared lines is paid
    for by the partitions that reuse them instead of inflating one
    owner's private budget.

    All monitors must share one set-index hash seed: the first-touch
    table only sees sampled addresses, and with per-partition hash
    seeds each partition would sample (and classify) a different
    address subset.  Overriding ``observe`` also opts out of the batch
    kernels' exploded sample fast path automatically -- the kernels
    call this bound method, with the set index from the chunk's UMON
    column, so the classification order is identical on every
    execution path.
    """

    #: First-touch table bound; at the cap the table is cleared
    #: wholesale (like the arrays' scalar hash memos), keeping
    #: behaviour a pure function of the access sequence.
    FIRST_TOUCH_CAP = 1 << 16

    def __init__(
        self,
        monitors,
        total_units: int,
        min_units: int = 1,
        granularity: int | None = None,
    ):
        super().__init__(monitors, total_units, min_units, granularity)
        seeds = {m._hash.seed for m in self.monitors}
        if len(seeds) > 1:
            raise ValueError(
                "reuse-aware UCP requires all monitors to share one "
                "set-index hash seed (their sampled sets must coincide)"
            )
        self._first_touch: dict[int, int] = {}
        self.shared_observed = [0] * len(self.monitors)

    def observe(self, part: int, addr: int, set_index: int | None = None) -> None:
        if set_index is None:
            set_index = self._hashes[part](addr)
        if set_index % self._periods[part]:
            return
        self.observed[part] += 1
        ft = self._first_touch
        if len(ft) >= self.FIRST_TOUCH_CAP:
            ft.clear()
        owner = ft.setdefault(addr, part)
        shared = owner != part
        if shared:
            self.shared_observed[part] += 1
        self.monitors[part].access(addr, set_index, shared)

    def allocate(self) -> list[int]:
        from repro.allocation.umon import interpolate_curve

        privates = []
        shareds = []
        for mon in self.monitors:
            private = mon.private_curve()
            shared = mon.shared_curve()
            if self.granularity is not None:
                private = interpolate_curve(private, self.granularity)
                shared = interpolate_curve(shared, self.granularity)
            privates.append(private)
            shareds.append(shared)
        pooled = [sum(points) for points in zip(*shareds)]
        total = (
            self.granularity if self.granularity is not None else self.total_units
        )
        units = lookahead_allocate(privates + [pooled], total, self.min_units)
        shared_units = units.pop()
        # Fold the shared pseudo-partition's units back onto the real
        # partitions in proportion to their shared observation volume
        # (largest remainder; index order breaks ties deterministically).
        if shared_units:
            weights = [m.shared_accesses for m in self.monitors]
            wsum = sum(weights)
            if wsum:
                quotas = [shared_units * w / wsum for w in weights]
                grants = [int(q) for q in quotas]
                leftover = shared_units - sum(grants)
                order = sorted(
                    range(len(grants)),
                    key=lambda i: (grants[i] - quotas[i], i),
                )
                for i in order[:leftover]:
                    grants[i] += 1
                units = [u + g for u, g in zip(units, grants)]
            else:
                for i in range(shared_units):
                    units[i % len(units)] += 1
        if self.granularity is not None:
            scale = self.total_units / self.granularity
            units = [int(u * scale) for u in units]
        for mon in self.monitors:
            mon.epoch_reset()
        self.last_allocation = list(units)
        return units

    def register_stats(self, group) -> None:
        super().register_stats(group)
        group.stat(
            "shared_observed",
            lambda: list(self.shared_observed),
            "per-partition sampled accesses classified as shared reuse",
        )
        group.stat(
            "first_touch_entries",
            lambda: len(self._first_touch),
            "addresses currently classified in the first-touch table",
        )
