"""RRIP-chain UMON (Section 6.2).

For Vantage-DRRIP the paper modifies UMON-DSS in two ways: the shadow
tags maintain *RRIP chains* instead of LRU chains (lines ordered by
their re-reference prediction values), and the sampled sets are split
in half -- one half simulating SRRIP, the other BRRIP -- so that at
every resize each partition can both report a miss curve consistent
with its RRIP behaviour and pick whichever insertion policy performed
better in the last interval.

``RRIPMonitor`` exposes the same ``access`` / ``miss_curve`` /
``epoch_reset`` surface as :class:`~repro.allocation.umon.UMonitor`,
plus :meth:`best_policy`.
"""

from __future__ import annotations

import random

from repro.arrays.hashing import H3Hash
from repro.replacement.rrip import BRRIP_EPSILON, RRPV_MAX
from repro.telemetry import SampledMonitor


class _RRIPStack:
    """One shadow set: lines ordered as an RRIP chain.

    The chain keeps (addr, rrpv) pairs sorted by eviction preference:
    highest RRPV first (evicted first).  Hit position for utility
    accounting is the line's distance from the eviction end, i.e. a
    line that survives only with w ways allocated counts as a
    position-(w-1) hit, mirroring the LRU-stack formulation.
    """

    def __init__(self, ways: int, brrip: bool, rng: random.Random):
        self.ways = ways
        self.brrip = brrip
        self.rng = rng
        self.lines: list[list] = []  # [addr, rrpv], eviction end last

    def access(self, addr: int) -> int | None:
        """Returns the hit's stack position (0 = safest), or None."""
        for i, entry in enumerate(self.lines):
            if entry[0] == addr:
                entry[1] = 0
                position = len(self.lines) - 1 - i
                self._reorder()
                return position
        # Miss: insert with the policy's RRPV.
        if self.brrip and self.rng.random() >= BRRIP_EPSILON:
            rrpv = RRPV_MAX
        else:
            rrpv = RRPV_MAX - 1
        if len(self.lines) >= self.ways:
            self._evict()
        self.lines.append([addr, rrpv])
        self._reorder()
        return None

    def _evict(self) -> None:
        # Evict the max-RRPV line, aging if necessary (RRIP semantics).
        while True:
            for i, entry in enumerate(self.lines):
                if entry[1] >= RRPV_MAX:
                    del self.lines[i]
                    return
            for entry in self.lines:
                entry[1] += 1

    def _reorder(self) -> None:
        # Stable sort: safest (lowest RRPV) first, eviction end last.
        self.lines.sort(key=lambda e: e[1])


class RRIPMonitor(SampledMonitor):
    """Per-core utility monitor with RRIP shadow chains and
    SRRIP-vs-BRRIP duelling halves."""

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
        if sampled_sets < 2 or model_sets % sampled_sets:
            raise ValueError("sampled_sets must divide model_sets and be >= 2")
        self.num_ways = num_ways
        self.model_sets = model_sets
        self.sampled_sets = sampled_sets
        self._period = model_sets // sampled_sets
        self._hash = H3Hash(model_sets, seed)
        self._rng = random.Random(seed + 1)
        self._stacks: dict[int, _RRIPStack] = {}
        # addr -> sampled set index (None outside the sampled sets);
        # the SampledMonitor contract, shared with UMonitor, which
        # lets UCP skip non-sampled addresses without a call.
        self._sample_cache: dict[int, int | None] = {}
        # Separate counters for the SRRIP and BRRIP halves.
        self.hits = {"srrip": [0] * num_ways, "brrip": [0] * num_ways}
        self.accesses = {"srrip": 0, "brrip": 0}

    def _half(self, set_index: int) -> str:
        return "srrip" if (set_index // self._period) % 2 == 0 else "brrip"

    def access(self, addr: int) -> None:
        set_index = self._sample_cache.get(addr, -1)
        if set_index == -1:
            set_index = self.decide(addr, self._hash(addr))
        if set_index is None:
            return
        half = self._half(set_index)
        self.accesses[half] += 1
        stack = self._stacks.get(set_index)
        if stack is None:
            stack = _RRIPStack(self.num_ways, brrip=(half == "brrip"), rng=self._rng)
            self._stacks[set_index] = stack
        position = stack.access(addr)
        if position is not None and position < self.num_ways:
            self.hits[half][position] += 1

    def best_policy(self) -> str:
        """The insertion policy with the lower miss rate this interval."""
        rates = {}
        for half in ("srrip", "brrip"):
            acc = self.accesses[half]
            if acc == 0:
                rates[half] = 1.0
            else:
                rates[half] = (acc - sum(self.hits[half])) / acc
        return "srrip" if rates["srrip"] <= rates["brrip"] else "brrip"

    def miss_curve(self) -> list[float]:
        """Combined miss curve over both halves (for Lookahead)."""
        total = float(self.accesses["srrip"] + self.accesses["brrip"])
        curve = [total]
        running = total
        for w in range(self.num_ways):
            running -= self.hits["srrip"][w] + self.hits["brrip"][w]
            curve.append(running)
        return curve

    def epoch_reset(self) -> None:
        for half in ("srrip", "brrip"):
            self.accesses[half] //= 2
            self.hits[half] = [h // 2 for h in self.hits[half]]

    def register_stats(self, group) -> None:
        super().register_stats(group)
        group.stat(
            "sampled_accesses",
            lambda: dict(self.accesses),
            "accesses that fell in each duelling half (decayed)",
        )
        group.stat(
            "best_policy",
            self.best_policy,
            "insertion policy with the lower miss rate this interval",
        )
