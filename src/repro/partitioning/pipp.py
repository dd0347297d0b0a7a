"""PIPP: promotion/insertion pseudo-partitioning (Xie & Loh, ISCA 2009).

PIPP approximates partitioning purely through the insertion and
promotion policies of a set-associative cache:

- each partition inserts new lines at a chain position equal to its
  allocated way count (counted from the LRU end);
- hits promote a line a single position with probability
  ``p_prom = 3/4`` instead of moving it to the MRU end;
- the victim is always the line at the LRU end of the set.

A stream-detection mechanism caps cache pollution from thrashing
applications: a partition whose L2 miss *rate* over the last
classification window reaches ``theta_m = 12.5 %`` is classified as
streaming, inserts at position 1 (one way), and promotes with
``p_stream = 1/128``.  These are the exact constants the paper's
methodology section uses.  (The original PIPP paper detects streams
from miss counts relative to the partition's allocation; the Vantage
paper only states the threshold, so we interpret theta_m as a miss-rate
threshold and re-classify at every allocation epoch -- the same
windows UCP uses.)

Like the paper, PIPP here is evaluated on set-associative arrays; the
scheme is defined in terms of per-set LRU chains and does not
generalise to zcaches.
"""

from __future__ import annotations

import random

from repro.arrays.set_assoc import SetAssociativeArray
from repro.partitioning.base_cache import PartitionedCache

P_PROM = 3 / 4
P_STREAM = 1 / 128
THETA_M = 0.125
STREAM_WAYS = 1


class PIPPCache(PartitionedCache):
    """Pseudo-partitioned set-associative cache implementing PIPP."""

    allocation_unit = "ways"

    def __init__(
        self,
        array: SetAssociativeArray,
        num_partitions: int,
        p_prom: float = P_PROM,
        p_stream: float = P_STREAM,
        theta_m: float = THETA_M,
        seed: int = 0,
        shared_policy: str | None = None,
    ):
        if not isinstance(array, SetAssociativeArray):
            raise TypeError("PIPP requires a set-associative array")
        super().__init__(array, num_partitions, shared_policy=shared_policy)
        self.p_prom = p_prom
        self.p_stream = p_stream
        self.theta_m = theta_m
        self._rng = random.Random(seed)
        base, extra = divmod(array.num_ways, num_partitions)
        self._alloc_ways = [base + (1 if p < extra else 0) for p in range(num_partitions)]
        self.streaming = [False] * num_partitions
        # Per-set LRU chain: chain[s][0] is the LRU slot.  Only
        # occupied slots appear in a chain, as slot-table ints.
        self._chains: list[list[int]] = [[] for _ in range(array.num_sets)]
        self._pos_of: list[int] = [-1] * array.num_lines
        # Classification window counters.
        self._win_accesses = [0] * num_partitions
        self._win_misses = [0] * num_partitions
        # Telemetry counters.
        self.promotions = [0] * num_partitions
        self.stream_windows = [0] * num_partitions

    @property
    def allocation_total(self) -> int:
        return self.array.num_ways

    def set_allocations(self, units: list[int]) -> None:
        if len(units) != self.num_partitions:
            raise ValueError("allocation vector length mismatch")
        if any(u < 1 for u in units):
            raise ValueError("PIPP requires at least one way per partition")
        # In place: the batch kernel captures this list for the whole
        # run.
        self._alloc_ways[:] = units

    def insertion_position(self, part: int) -> int:
        """Chain index (from the LRU end) where ``part`` inserts."""
        if self.streaming[part]:
            return STREAM_WAYS
        return self._alloc_ways[part]

    def promotion_probability(self, part: int) -> float:
        return self.p_stream if self.streaming[part] else self.p_prom

    def reclassify_streams(self) -> None:
        """Re-run stream detection over the last window and reset it.

        Call at allocation-epoch boundaries (the harness does this just
        before invoking UCP).
        """
        for part in range(self.num_partitions):
            accesses = self._win_accesses[part]
            if accesses:
                rate = self._win_misses[part] / accesses
                self.streaming[part] = rate >= self.theta_m
                if self.streaming[part]:
                    self.stream_windows[part] += 1
            self._win_accesses[part] = 0
            self._win_misses[part] = 0

    # ------------------------------------------------------------------
    # Chain maintenance.
    # ------------------------------------------------------------------

    def _chain_insert(self, chain: list[int], index: int, slot: int) -> None:
        index = min(index, len(chain))
        chain.insert(index, self.array._slot_ints[slot])
        pos_of = self._pos_of
        for i in range(index, len(chain)):
            pos_of[chain[i]] = i

    def _chain_pop_lru(self, chain: list[int]) -> int:
        slot = chain.pop(0)
        pos_of = self._pos_of
        pos_of[slot] = -1
        for i, s in enumerate(chain):
            pos_of[s] = i
        return slot

    def _promote(self, chain: list[int], slot: int) -> None:
        i = self._pos_of[slot]
        if i + 1 < len(chain):
            other = chain[i + 1]
            chain[i], chain[i + 1] = other, slot
            self._pos_of[other] = i
            self._pos_of[slot] = i + 1

    # ------------------------------------------------------------------
    # Access path.
    # ------------------------------------------------------------------

    def access(self, addr: int, part: int = 0) -> bool:
        array = self.array
        self._win_accesses[part] += 1
        slot = array.lookup(addr)
        if slot is not None:
            self._record_access(part, hit=True)
            if self._rng.random() < self.promotion_probability(part):
                self.promotions[part] += 1
                set_index = slot // array.num_ways
                self._promote(self._chains[set_index], slot)
            if self._shared_code and self.part_of[slot] != part:
                # Attribution only: PIPP partitions through chain
                # positions, so the line itself does not move.
                self._shared_hit(slot, part)
            return True

        self._record_access(part, hit=False)
        self._win_misses[part] += 1
        set_index = array.set_index(addr)
        chain = self._chains[set_index]
        candidates = array.candidates(addr)
        victim = self._first_empty(candidates)
        if victim is None:
            lru_slot = chain[0]
            victim = next(c for c in candidates if c.slot == lru_slot)
            self._evict_bookkeeping(victim)
            self._chain_pop_lru(chain)
        moves = array.install(addr, victim)
        landing = self._install_bookkeeping(addr, part, victim, moves)
        self._chain_insert(chain, self.insertion_position(part), landing)
        return False

    def register_stats(self, group) -> None:
        super().register_stats(group)
        p = group.group("pipp", "PIPP promotion/insertion state")
        p.stat(
            "promotions",
            lambda: list(self.promotions),
            "per-partition single-step chain promotions taken",
        )
        p.stat(
            "stream_windows",
            lambda: list(self.stream_windows),
            "per-partition windows classified as streaming",
        )
        p.stat(
            "streaming",
            lambda: list(self.streaming),
            "per-partition current streaming classification",
        )
        p.stat(
            "alloc_ways",
            lambda: list(self._alloc_ways),
            "per-partition allocated way counts",
        )
