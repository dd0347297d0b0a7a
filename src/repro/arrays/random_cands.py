"""Idealised random-candidates array.

Section 6.2 of the paper validates Vantage's analytical models against
"a random candidates cache, an unrealistic cache design that gives
truly independent and uniformly distributed candidates".  This array
implements exactly that: lines live in a flat slot space, lookups use a
perfect index, and each miss offers R slots drawn uniformly at random.
It is the ground truth for the uniformity assumption F_A(x) = x^R
(Equation 1).
"""

from __future__ import annotations

import random

from repro.arrays.base import CacheArray, Candidate


class RandomCandidatesArray(CacheArray):
    """Flat array returning R uniformly random replacement candidates.

    While any slot is still free, misses are offered a single empty
    candidate (filling the cache before any replacement happens, like a
    real cache during warmup).  Once full, every miss samples R
    distinct occupied slots uniformly at random.
    """

    def __init__(self, num_lines: int, candidates_per_miss: int, seed: int = 0):
        super().__init__(num_lines, num_ways=1)
        if candidates_per_miss <= 0:
            raise ValueError(
                f"candidates_per_miss must be positive, got {candidates_per_miss}"
            )
        if candidates_per_miss > num_lines:
            raise ValueError("candidates_per_miss cannot exceed num_lines")
        self._r = candidates_per_miss
        self._rng = random.Random(seed)
        self._free = self._slot_ints[num_lines - 1 :: -1]

    @property
    def candidates_per_miss(self) -> int:
        return self._r

    def positions(self, addr: int) -> tuple[int, ...]:
        slot = self._slot_of.get(addr)
        return (slot,) if slot is not None else ()

    def candidates(self, addr: int) -> list[Candidate]:
        if self._free:
            slot = self._free[-1]
            return [Candidate(slot, None, (slot,), 0)]
        tags = self._tags
        slots = self._rng.sample(range(self.num_lines), self._r)
        return [
            Candidate(slot, tags[slot] if tags[slot] >= 0 else None, (slot,), 0)
            for slot in slots
        ]

    def candidate_slots(self, addr: int, first=None):
        # Consumes the RNG exactly like candidates(): one sample per
        # miss once the array is full, nothing while slots are free.
        if self._free:
            if self._collect:
                self.stat_walks += 1
                self.stat_candidates += 1
            return [self._free[-1]], None, True
        if self._collect:
            self.stat_walks += 1
            self.stat_candidates += self._r
        return self._rng.sample(range(self.num_lines), self._r), None, False

    def install(self, addr: int, victim: Candidate) -> list[tuple[int, int]]:
        if victim.addr is None and self._free and victim.slot == self._free[-1]:
            self._free.pop()
        return super().install(addr, victim)

    def install_walk(
        self, addr: int, slots, parents, index: int, first=None
    ) -> int:
        slot = slots[index]
        if self._free and slot == self._free[-1] and self._tags[slot] < 0:
            self._free.pop()
        return super().install_walk(addr, slots, parents, index)

    def invalidate(self, addr: int) -> int | None:
        slot = super().invalidate(addr)
        if slot is not None:
            self._free.append(slot)
        return slot
