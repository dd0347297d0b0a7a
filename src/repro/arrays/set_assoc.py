"""Conventional set-associative cache array.

The index is either the low bits of the line address or an H3 hash of
it ("hashed set-associative", which the paper uses for every
set-associative configuration).  A miss offers the W lines of the
indexed set as replacement candidates, so R = W.
"""

from __future__ import annotations

from array import array

from repro.arrays.base import CacheArray, Candidate
from repro.arrays.hashing import H3Hash


class SetAssociativeArray(CacheArray):
    """W-way set-associative array.

    Slot layout: ``slot = set_index * num_ways + way``, which keeps a
    set's slots contiguous (convenient for per-set state such as PIPP's
    LRU chains).

    Parameters
    ----------
    num_lines:
        Total capacity in lines.
    num_ways:
        Set associativity.  ``num_lines / num_ways`` must be a power
        of two.
    hashed:
        Index with an H3 hash of the address (default, matching the
        paper) instead of the address's low bits.
    seed:
        Seed for the index hash.
    """

    def __init__(self, num_lines: int, num_ways: int, hashed: bool = True, seed: int = 0):
        super().__init__(num_lines, num_ways)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"num_sets must be a power of two, got {self.num_sets}")
        self.hashed = hashed
        self._hash = H3Hash(self.num_sets, seed) if hashed else None
        self._set_mask = self.num_sets - 1
        # Bounded per-instance memo of the H3 set index, for the scalar
        # callers of set_index() (the object path); batch kernels read
        # index_column() instead.
        # Unbounded, a long random-address run would hold one entry per
        # distinct address ever seen; instead the memo is flushed
        # wholesale when it reaches the cap (recomputing an H3 hash is
        # cheap, and a full clear keeps the hit path to a single dict
        # get).
        self._index_cache: dict[int, int] = {}
        self._index_cache_cap = max(4 * num_lines, 1 << 16)
        # Free-slot count per set, so candidate_slots can skip the
        # per-way emptiness scan once a set is full (the steady state),
        # and reusable range objects for the full-set fast path.
        self._set_free = [num_ways] * self.num_sets
        self._set_ranges = [
            range(s * num_ways, (s + 1) * num_ways) for s in range(self.num_sets)
        ]

    @property
    def candidates_per_miss(self) -> int:
        return self.num_ways

    def set_index(self, addr: int) -> int:
        """Set index of ``addr`` (hashed or modulo)."""
        if self._hash is None:
            return addr & self._set_mask
        cache = self._index_cache
        idx = cache.get(addr)
        if idx is None:
            if len(cache) >= self._index_cache_cap:
                cache.clear()
            idx = self._hash(addr)
            cache[addr] = idx
        return idx

    def index_column(self, chunk) -> array:
        """The set index of every address in a trace chunk (see
        :func:`~repro.arrays.hashing.hash_column`), hashed once per
        refill so batch kernels never call :meth:`set_index`."""
        if self._hash is None:
            mask = self._set_mask
            return array("q", [a & mask for a in chunk[1::2]])
        return self._hash.column(chunk)

    def positions(self, addr: int) -> tuple[int, ...]:
        base = self.set_index(addr) * self.num_ways
        return tuple(range(base, base + self.num_ways))

    def positions_into(self, addr: int, buf: list[int]) -> int:
        base = self.set_index(addr) * self.num_ways
        num_ways = self.num_ways
        for way in range(num_ways):
            buf[way] = base + way
        return num_ways

    def candidates(self, addr: int) -> list[Candidate]:
        base = self.set_index(addr) * self.num_ways
        tags = self._tags
        out: list[Candidate] = []
        for way in range(self.num_ways):
            tag = tags[base + way]
            out.append(
                Candidate(
                    base + way, tag if tag >= 0 else None, (base + way,), way
                )
            )
        return out

    def candidate_slots(self, addr: int, first: int | None = None):
        """``first``: ``addr``'s set index when the caller already has
        it (its :meth:`index_column` entry)."""
        set_index = self.set_index(addr) if first is None else first
        if self._set_free[set_index]:
            base = set_index * self.num_ways
            tags = self._tags
            slots: list[int] = []
            for slot in range(base, base + self.num_ways):
                slots.append(slot)
                if tags[slot] < 0:
                    if self._collect:
                        self.stat_walks += 1
                        self.stat_candidates += len(slots)
                    return slots, None, True
        if self._collect:
            self.stat_walks += 1
            self.stat_candidates += self.num_ways
        return self._set_ranges[set_index], None, False

    def _place(self, addr: int, slot: int, first=None) -> None:
        super()._place(addr, slot)
        self._set_free[slot // self.num_ways] -= 1

    def _remove(self, slot: int) -> None:
        super()._remove(slot)
        self._set_free[slot // self.num_ways] += 1

    def set_slots(self, set_index: int) -> range:
        """Slots of one set, in way order (used by per-set policies)."""
        base = set_index * self.num_ways
        return range(base, base + self.num_ways)
