"""Way-partitioning (column caching) [Chiou et al., DAC 2000].

Each partition is assigned a subset of the ways; a miss from partition
``p`` may only evict from (and install into) ``p``'s ways, which gives
strict capacity guarantees at way granularity but reduces each
partition's associativity to its way count -- the central weakness the
paper's evaluation exposes at 32 cores.

Re-assigning ways does not move data: a way handed from partition A to
partition B still holds A's lines until B's misses evict them lazily,
which is why Figure 8a shows way-partitioning taking ~100 Mcycles to
converge after a downsize.  We reproduce that behaviour faithfully.
"""

from __future__ import annotations

from repro.arrays.base import Candidate
from repro.arrays.set_assoc import SetAssociativeArray
from repro.partitioning.base_cache import PartitionedCache
from repro.replacement.base import ReplacementPolicy
from repro.replacement.lru import CoarseLRUPolicy


class WayPartitionedCache(PartitionedCache):
    """Strict way-partitioned set-associative cache.

    Parameters
    ----------
    array:
        Must be a :class:`SetAssociativeArray`; way-partitioning is
        meaningless on skewed arrays, where a way is indexed by a
        different hash per way.
    num_partitions:
        Partition count; must not exceed the number of ways.
    policy:
        Replacement policy ranking lines *within* a partition's ways
        (LRU by default, as in the paper's comparison).
    """

    allocation_unit = "ways"

    def __init__(
        self,
        array: SetAssociativeArray,
        num_partitions: int,
        policy: ReplacementPolicy | None = None,
        shared_policy: str | None = None,
    ):
        if not isinstance(array, SetAssociativeArray):
            raise TypeError("way-partitioning requires a set-associative array")
        if num_partitions > array.num_ways:
            raise ValueError(
                f"cannot hold {num_partitions} partitions with only "
                f"{array.num_ways} ways"
            )
        super().__init__(array, num_partitions, shared_policy=shared_policy)
        self.policy = policy if policy is not None else CoarseLRUPolicy(array.num_lines)
        # Start with an equal split (every way assigned to someone).
        base, extra = divmod(array.num_ways, num_partitions)
        self._way_counts = [base + (1 if p < extra else 0) for p in range(num_partitions)]
        self._way_owner = self._assign_ways(self._way_counts)

    @property
    def allocation_total(self) -> int:
        return self.array.num_ways

    def ways_of(self, part: int) -> list[int]:
        """Way indices currently assigned to ``part``."""
        return [w for w, owner in enumerate(self._way_owner) if owner == part]

    def set_allocations(self, units: list[int]) -> None:
        if len(units) != self.num_partitions:
            raise ValueError("allocation vector length mismatch")
        if any(u < 1 for u in units):
            raise ValueError("way-partitioning requires at least one way per partition")
        if sum(units) != self.array.num_ways:
            raise ValueError(
                f"way allocations must sum to {self.array.num_ways}, got {sum(units)}"
            )
        # In place: the batch kernel captures ``_way_owner`` for the
        # whole run, and UCP reallocates every epoch.
        self._way_counts[:] = units
        self._way_owner[:] = self._assign_ways(units)

    @staticmethod
    def _assign_ways(counts: list[int]) -> list[int]:
        owner: list[int] = []
        for part, count in enumerate(counts):
            owner.extend([part] * count)
        return owner

    def access(self, addr: int, part: int = 0) -> bool:
        array = self.array
        slot = array.lookup(addr)
        if slot is not None:
            self.policy.on_hit(slot, part, addr)
            self._record_access(part, hit=True)
            if self._shared_code and self.part_of[slot] != part:
                # Ownership here is attribution only: the line stays
                # in the way its installer owned (ways, not lines, are
                # the partitioning unit).
                self._shared_hit(slot, part)
            return True

        self._record_access(part, hit=False)
        owner = self._way_owner
        mine = [c for c in array.candidates(addr) if owner[c.way] == part]
        # At least one way belongs to every partition, so `mine` is
        # never empty.
        victim = self._first_empty(mine)
        if victim is None:
            victim = self.policy.select_victim(mine)
            self._evict_bookkeeping(victim)
        moves = array.install(addr, victim)
        landing = self._install_bookkeeping(addr, part, victim, moves)
        self.policy.on_insert(landing, part, addr)
        return False

    def register_stats(self, group) -> None:
        super().register_stats(group)
        w = group.group("waypart", "way-partitioning state")
        w.stat(
            "way_counts",
            lambda: list(self._way_counts),
            "per-partition assigned way counts",
        )
        if hasattr(self.policy, "register_stats"):
            self.policy.register_stats(
                group.group("replacement", "intra-partition policy")
            )
