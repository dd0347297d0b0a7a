"""UMON-DSS: utility monitors with dynamic set sampling (UCP [19]).

Each core gets a small shadow tag array that mimics how *that core
alone* would use the cache: ``num_ways``-deep true-LRU stacks for a
sampled subset of sets, with one hit counter per LRU stack position.
Position-``i`` hits are hits the core would get only if it were
allocated at least ``i + 1`` ways, so the counters directly yield the
core's miss-versus-allocation *utility curve*, which the Lookahead
algorithm consumes.

Counters are halved at every allocation epoch, giving an exponential
moving average that adapts to phase changes (as in the UCP paper).
"""

from __future__ import annotations

from repro.arrays.hashing import H3Hash
from repro.telemetry import SampledMonitor


class UMonitor(SampledMonitor):
    """Per-core utility monitor (UMON-DSS).

    Parameters
    ----------
    num_ways:
        Associativity being modelled; the utility curve has
        ``num_ways + 1`` points (0..num_ways ways).
    model_sets:
        Sets of the modelled cache (used to compute the sampling
        ratio and the set-index hash width).  Must be a power of two.
    sampled_sets:
        How many of those sets the monitor actually tracks (64 in the
        paper).
    """

    def __init__(
        self,
        num_ways: int,
        model_sets: int,
        sampled_sets: int = 64,
        seed: int = 0,
    ):
        if num_ways <= 0:
            raise ValueError("num_ways must be positive")
        if model_sets <= 0 or model_sets & (model_sets - 1):
            raise ValueError("model_sets must be a power of two")
        sampled_sets = min(sampled_sets, model_sets)
        if sampled_sets <= 0 or model_sets % sampled_sets:
            raise ValueError("sampled_sets must divide model_sets")
        self.num_ways = num_ways
        self.model_sets = model_sets
        self.sampled_sets = sampled_sets
        self._period = model_sets // sampled_sets
        self._hash = H3Hash(model_sets, seed)
        # One LRU stack (list of addrs, MRU first) per sampled set.
        # Sampling is by set index alone (see SampledMonitor), so the
        # monitor holds no per-address state beyond these stacks.
        self._stacks: dict[int, list[int]] = {}
        self.hits = [0] * num_ways
        self.accesses = 0

    def access(self, addr: int, set_index: int) -> None:
        """Observe one of the core's L2 accesses, given its set index
        (``self._hash(addr)``); only sampled sets are monitored."""
        if set_index % self._period:
            return
        self.accesses += 1
        stack = self._stacks.get(set_index)
        if stack is None:
            stack = []
            self._stacks[set_index] = stack
        try:
            position = stack.index(addr)
        except ValueError:
            stack.insert(0, addr)
            if len(stack) > self.num_ways:
                stack.pop()
            return
        self.hits[position] += 1
        del stack[position]
        stack.insert(0, addr)

    def miss_curve(self) -> list[float]:
        """Misses the core would suffer with 0..num_ways allocated ways
        (in sampled accesses; the common scale cancels in Lookahead)."""
        curve = [float(self.accesses)]
        running = float(self.accesses)
        for h in self.hits:
            running -= h
            curve.append(running)
        return curve

    def epoch_reset(self) -> None:
        """Halve the counters (exponential decay across epochs)."""
        self.accesses //= 2
        self.hits = [h // 2 for h in self.hits]

    def register_stats(self, group) -> None:
        group.stat(
            "sampled_accesses",
            lambda: self.accesses,
            "accesses that fell in the sampled sets (decayed)",
        )
        group.stat(
            "position_hits",
            lambda: list(self.hits),
            "per-LRU-stack-position hit counters (decayed)",
        )


class ReuseUMonitor(UMonitor):
    """UMON that splits its utility curve into private and shared reuse.

    On shared-address mixes part of a core's hits come from lines other
    cores keep warm; allocating that core private capacity for them is
    wasted.  The caller classifies each sampled access (first-touch
    core vs requester, see ``ReuseAwareUCPPolicy.observe``) and the
    monitor tracks the shared subset alongside the parent totals:
    ``shared_curve()`` is the miss curve of the shared accesses alone
    and ``private_curve()`` the pointwise remainder, so Lookahead can
    weigh private capacity against one pooled shared budget.
    """

    def __init__(
        self,
        num_ways: int,
        model_sets: int,
        sampled_sets: int = 64,
        seed: int = 0,
    ):
        super().__init__(num_ways, model_sets, sampled_sets, seed)
        self.shared_accesses = 0
        self.shared_hits = [0] * num_ways

    def access(self, addr: int, set_index: int, shared: bool = False) -> None:
        if set_index % self._period:
            return
        self.accesses += 1
        if shared:
            self.shared_accesses += 1
        stack = self._stacks.get(set_index)
        if stack is None:
            stack = []
            self._stacks[set_index] = stack
        try:
            position = stack.index(addr)
        except ValueError:
            stack.insert(0, addr)
            if len(stack) > self.num_ways:
                stack.pop()
            return
        self.hits[position] += 1
        if shared:
            self.shared_hits[position] += 1
        del stack[position]
        stack.insert(0, addr)

    def shared_curve(self) -> list[float]:
        """Miss curve of the shared-classified accesses alone."""
        curve = [float(self.shared_accesses)]
        running = float(self.shared_accesses)
        for h in self.shared_hits:
            running -= h
            curve.append(running)
        return curve

    def private_curve(self) -> list[float]:
        """Miss curve of the private accesses: total minus shared."""
        return [
            t - s for t, s in zip(self.miss_curve(), self.shared_curve())
        ]

    def epoch_reset(self) -> None:
        super().epoch_reset()
        self.shared_accesses //= 2
        self.shared_hits = [h // 2 for h in self.shared_hits]

    def register_stats(self, group) -> None:
        super().register_stats(group)
        group.stat(
            "shared_accesses",
            lambda: self.shared_accesses,
            "sampled accesses classified as shared reuse (decayed)",
        )
        group.stat(
            "shared_position_hits",
            lambda: list(self.shared_hits),
            "per-position hit counters of the shared subset (decayed)",
        )


def interpolate_curve(curve: list[float], num_points: int) -> list[float]:
    """Linearly resample a miss curve to ``num_points + 1`` points.

    The paper feeds Vantage 256-point curves interpolated from the
    way-granularity UMON output so Lookahead can allocate at line
    granularity.  Point ``i`` of the result corresponds to a capacity
    of ``i / num_points`` of the monitored cache.
    """
    if len(curve) < 2:
        raise ValueError("curve needs at least two points")
    last = len(curve) - 1
    out = []
    for i in range(num_points + 1):
        x = i * last / num_points
        lo = int(x)
        if lo >= last:
            out.append(curve[last])
            continue
        frac = x - lo
        out.append(curve[lo] * (1.0 - frac) + curve[lo + 1] * frac)
    return out
