"""Skew-associative cache array (Seznec, 1993).

Each way is a separate bank indexed with its own H3 hash function, so
conflicts in one way are spread out across the others.  A miss offers
one candidate per way (R = W), with no relocation: a skew cache is a
zcache whose replacement walk stops at the first level.
"""

from __future__ import annotations

from array import array

from repro.arrays.base import CacheArray, Candidate
from repro.arrays.hashing import _MASK_BITS, H3Family, hash_column


def relocated_positions(
    others: tuple[int, ...], src: int, dst: int, num_sets: int
) -> tuple[int, ...]:
    """The ``_pos_by_slot`` entry of a line moving from ``src`` to
    ``dst``, derived from its entry at ``src`` (``others``: the line's
    positions minus ``src``) with no hashing: put ``src`` back at its
    way, take ``dst`` out of its way.  ``src`` is a slot-table int (it
    came out of a positions tuple), so the result holds only those."""
    way = src // num_sets
    full = others[:way] + (src,) + others[way:]
    way = dst // num_sets
    return full[:way] + full[way + 1 :]


class SkewAssociativeArray(CacheArray):
    """W-way skew-associative array.

    Slot layout: ``slot = way * num_sets + h_way(addr)``; each way owns
    a contiguous bank of ``num_sets`` slots.
    """

    def __init__(self, num_lines: int, num_ways: int, seed: int = 0):
        super().__init__(num_lines, num_ways)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"num_sets must be a power of two, got {self.num_sets}")
        if num_lines >= 1 << _MASK_BITS:
            raise ValueError("num_lines must fit in one fused-hash lane")
        self.hashes = H3Family(num_ways, self.num_sets, seed)
        # Bounded per-instance memo of position tuples, for the scalar
        # callers of positions() (the object path); batch kernels read
        # index_column() instead, and relocations derive positions
        # from _pos_by_slot.  Flushed wholesale at the cap like
        # SetAssociativeArray._index_cache (correctness never depends
        # on an entry being present).  Position tuples hold slot-table
        # ints (repro.arrays.base.slot_ints), on both paths.
        self._position_cache: dict[int, tuple[int, ...]] = {}
        self._position_cache_cap = max(4 * num_lines, 1 << 16)
        # First slot of each way's bank (positions() adds these to the
        # per-way hashes).
        self._bank_bases = tuple(way * self.num_sets for way in range(num_ways))
        # The fused hash packs each way's bucket into its own 32-bit
        # lane; adding these pre-shifted bank bases turns every lane
        # into a global slot index in a single operation (lanes are
        # pre-masked to the bucket width, so the add cannot carry).
        self._lane_offsets = sum(
            (way * self.num_sets) << (_MASK_BITS * way) for way in range(num_ways)
        )
        self._lane_shifts = tuple(_MASK_BITS * way for way in range(num_ways))
        self._lane_mask = (1 << _MASK_BITS) - 1
        # The *other-way* positions of the line resident at each slot
        # (None when empty): a line always sits at one of its own
        # hashed positions, so the walk never needs to re-visit that
        # one, and a list index replaces a per-parent dict lookup.
        self._pos_by_slot: list[tuple[int, ...] | None] = [None] * num_lines
        # Scratch list reused by candidate_slots (see the fast-path
        # protocol: the result is only valid until the next walk).
        self._walk_slots: list[int] = []

    @property
    def candidates_per_miss(self) -> int:
        return self.num_ways

    def positions(self, addr: int) -> tuple[int, ...]:
        cache = self._position_cache
        pos = cache.get(addr)
        if pos is None:
            if len(cache) >= self._position_cache_cap:
                cache.clear()
            h = self.hashes.packed(addr) + self._lane_offsets
            mask = self._lane_mask
            slots = self._slot_ints
            pos = tuple([slots[(h >> shift) & mask] for shift in self._lane_shifts])
            cache[addr] = pos
        return pos

    def index_column(self, chunk) -> array:
        """Every address's positions in a trace chunk, ``num_ways``
        entries per address (see
        :func:`~repro.arrays.hashing.hash_column`): each way's H3 hash
        plus its bank base, which is exactly :meth:`positions`.  The
        entries are plain int64s: a batch kernel maps a missing
        address's entries through the slot table before it passes
        them on as ``first``."""
        return hash_column(chunk, self.hashes.functions, self._bank_bases)

    def positions_into(self, addr: int, buf: list[int]) -> int:
        pos = self._position_cache.get(addr)
        if pos is not None:
            n = len(pos)
            buf[:n] = pos
            return n
        h = self.hashes.packed(addr) + self._lane_offsets
        mask = self._lane_mask
        n = 0
        for shift in self._lane_shifts:
            buf[n] = (h >> shift) & mask
            n += 1
        return n

    def candidates(self, addr: int) -> list[Candidate]:
        tags = self._tags
        out: list[Candidate] = []
        for way, slot in enumerate(self.positions(addr)):
            tag = tags[slot]
            out.append(Candidate(slot, tag if tag >= 0 else None, (slot,), way))
        return out

    def candidate_slots(self, addr: int, first=None):
        tags = self._tags
        slots = self._walk_slots
        slots.clear()
        has_empty = False
        if first is None:
            first = self.positions(addr)
        for slot in first:
            slots.append(slot)
            if tags[slot] < 0:
                has_empty = True
                break
        if self._collect:
            self.stat_walks += 1
            self.stat_candidates += len(slots)
        return slots, None, has_empty

    def way_of_slot(self, slot: int) -> int:
        return slot // self.num_sets

    def _other_positions(
        self, addr: int, slot: int, first=None
    ) -> tuple[int, ...]:
        """``positions(addr)`` (or the caller's ``first``) minus
        ``addr``'s own slot.  The line sits at its way's position, so
        dropping index ``way(slot)`` removes exactly that one."""
        pos = self.positions(addr) if first is None else first
        way = slot // self.num_sets
        return pos[:way] + pos[way + 1 :]

    def _place(self, addr: int, slot: int, first=None) -> None:
        super()._place(addr, slot)
        self._pos_by_slot[slot] = self._other_positions(addr, slot, first)

    def _move(self, src: int, dst: int) -> None:
        others = self._pos_by_slot[src]
        super()._move(src, dst)
        self._pos_by_slot[dst] = relocated_positions(
            others, src, dst, self.num_sets
        )
        self._pos_by_slot[src] = None

    def _remove(self, slot: int) -> None:
        super()._remove(slot)
        self._pos_by_slot[slot] = None
