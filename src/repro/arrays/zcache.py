"""ZCache array (Sanchez & Kozyrakis, MICRO 2010).

A zcache is a skew-associative array whose replacement process *walks*
the cache: the W direct positions of the incoming address yield W
first-level candidates; each candidate line can itself be relocated to
its positions in the other W-1 ways, exposing the lines there as
second-level candidates, and so on.  A W-way zcache therefore obtains
an arbitrarily large number of replacement candidates R with only W
lookups on a hit -- the paper's Z4/52 configuration is a 4-way zcache
walking to R = 52 candidates (4 + 12 + 36 over three levels).

Evicting a deep candidate relocates every line on its path one step
down, which :meth:`CacheArray.install` performs and reports, so the
candidates produced by the walk behave (statistically) like a uniform
random sample of the cache's lines -- the property Vantage's analysis
relies on.
"""

from __future__ import annotations

from repro.arrays.base import EMPTY, Candidate
from repro.arrays.skew import SkewAssociativeArray, relocated_positions


class _WalkLevels(list):
    """Level-end indices of a replacement walk (``slots[bounds[k-1]:
    bounds[k]]`` is level ``k``), passed as the ``parents`` descriptor
    of the fast-path protocol.  The walk records no per-slot parent;
    :meth:`ZCacheArray._victim_chain` re-derives the victim's path:
    a slot's discoverer is the *first* previous-level candidate whose
    stored positions contain it (any earlier one would have discovered
    it first).  Every expanded parent is occupied -- an empty slot
    ends the walk immediately, so it can only ever be the last slot
    of the final level -- which is what lets the reconstruction read
    ``_pos_by_slot`` unconditionally.

    ``hint`` is the index (into the slot list) of the parent that
    discovered the *last* slot, recorded when the walk stops at an
    empty slot, or -1.  Empty-stop victims are the common case, and
    the hint skips the widest parent scan of the reconstruction."""

    __slots__ = ("hint",)


class ZCacheArray(SkewAssociativeArray):
    """W-way zcache providing R candidates per replacement.

    Parameters
    ----------
    num_lines:
        Total capacity in lines.
    num_ways:
        Physical ways (W); determines lookup cost.
    candidates_per_miss:
        Walk size (R).  Z4/16 and Z4/52 from the paper correspond to
        ``num_ways=4`` with 16 and 52 candidates.
    seed:
        Seed for the per-way H3 hash functions.
    """

    def __init__(
        self,
        num_lines: int,
        num_ways: int = 4,
        candidates_per_miss: int = 52,
        seed: int = 0,
    ):
        super().__init__(num_lines, num_ways, seed)
        if candidates_per_miss < num_ways:
            raise ValueError(
                f"candidates_per_miss ({candidates_per_miss}) must be at least "
                f"num_ways ({num_ways})"
            )
        self._r = candidates_per_miss
        # Generation-stamped visited marks: a per-slot int compared
        # against a walk counter is cheaper than a set of slot indices
        # rebuilt on every miss.
        self._walk_stamp = [0] * num_lines
        self._walk_gen = 0
        # Reused level-bounds descriptor (valid until the next walk,
        # like _walk_slots).
        self._walk_bounds = _WalkLevels()
        self._walk_bounds.hint = -1
        # Scratch chain reused by install_walk.
        self._install_chain: list[int] = []

    @property
    def candidates_per_miss(self) -> int:
        return self._r

    def candidates(self, addr: int) -> list[Candidate]:
        """Breadth-first replacement walk collecting up to R candidates.

        Empty slots found during the walk are reported as empty
        candidates (installing there needs no eviction) and are not
        expanded further, since they hold no line to relocate.
        """
        tags = self._tags
        num_sets = self.num_sets
        num_ways = self.num_ways
        positions = self.positions
        found: list[Candidate] = []
        visited: set[int] = set()
        # Frontier of expandable (occupied) candidates, in discovery order.
        frontier: list[Candidate] = []

        for way, slot in enumerate(positions(addr)):
            if slot in visited:
                continue
            visited.add(slot)
            line = tags[slot]
            occupied = line >= 0
            cand = Candidate(slot, line if occupied else None, (slot,), way)
            found.append(cand)
            if occupied:
                frontier.append(cand)

        r = self._r
        while len(found) < r and frontier:
            next_frontier: list[Candidate] = []
            for parent in frontier:
                parent_slot = parent.slot
                parent_way = parent_slot // num_sets
                line = tags[parent_slot]
                if line < 0:
                    # The parent can only become empty through external
                    # mutation between walks; candidates() is atomic per
                    # miss, so this is unreachable -- but stay safe.
                    continue
                # positions() memoises the per-way hashes of resident
                # lines, which dominates the walk's cost otherwise.
                line_positions = positions(line)
                for way in range(num_ways):
                    if way == parent_way:
                        continue
                    slot = line_positions[way]
                    if slot in visited:
                        continue
                    visited.add(slot)
                    child = tags[slot]
                    occupied = child >= 0
                    cand = Candidate(
                        slot, child if occupied else None, parent.path + (slot,), way
                    )
                    found.append(cand)
                    if occupied:
                        next_frontier.append(cand)
                    if len(found) >= r:
                        return found
            frontier = next_frontier
        return found

    def _victim_chain(self, slots, bounds, index: int, chain: list[int]):
        """Fill ``chain`` with the victim ``slots[index]`` and then each
        slot up its discovery path, ending at the landing slot (a
        first-level position); returns ``chain``.  Reads only
        ``_pos_by_slot``, so it must run before any relocation."""
        slot = slots[index]
        level = 0
        while bounds[level] <= index:
            level += 1
        chain.clear()
        chain.append(slot)
        cur = slot
        pos_by_slot = self._pos_by_slot
        if level > 0 and bounds.hint >= 0 and index == len(slots) - 1:
            cur = slots[bounds.hint]
            chain.append(cur)
            level -= 1
        while level > 0:
            lo = bounds[level - 2] if level >= 2 else 0
            for pi in range(lo, bounds[level - 1]):
                parent = slots[pi]
                if cur in pos_by_slot[parent]:
                    cur = parent
                    break
            else:  # pragma: no cover - the walk guarantees a parent
                raise RuntimeError("walk level bounds are inconsistent")
            chain.append(cur)
            level -= 1
        return chain

    def make_candidate(self, slots, parents, index):
        if type(parents) is not _WalkLevels:
            return super().make_candidate(slots, parents, index)
        chain = self._victim_chain(slots, parents, index, [])
        chain.reverse()
        slot = slots[index]
        tag = self._tags[slot]
        return Candidate(
            slot,
            tag if tag >= 0 else None,
            tuple(chain),
            slot // self.num_sets,
        )

    def install_walk(
        self, addr: int, slots, parents, index: int, first=None
    ) -> int:
        if type(parents) is not _WalkLevels:
            return super().install_walk(addr, slots, parents, index, first)
        chain = self._victim_chain(slots, parents, index, self._install_chain)
        slot = chain[0]
        # chain[0] is the victim, chain[-1] the landing slot; lines
        # move one step toward the victim, nearest-the-victim first
        # (the order CacheArray.install reports).  A moving line's
        # positions come from its _pos_by_slot entry, read before the
        # next step overwrites it: the walk hashes nothing.
        slot_of = self._slot_of
        tags = self._tags
        pos_by_slot = self._pos_by_slot
        num_sets = self.num_sets
        old = tags[slot]
        if old >= 0:
            tags[slot] = EMPTY
            del slot_of[old]
            pos_by_slot[slot] = None
        moves = self._install_moves
        moves.clear()
        moves_append = moves.append
        for k in range(1, len(chain)):
            src = chain[k]
            dst = chain[k - 1]
            line = tags[src]
            tags[src] = EMPTY
            tags[dst] = line
            slot_of[line] = dst
            pos_by_slot[dst] = relocated_positions(
                pos_by_slot[src], src, dst, num_sets
            )
            pos_by_slot[src] = None
            moves_append(src)
            moves_append(dst)
        landing = chain[-1]
        tags[landing] = addr
        slot_of[addr] = landing
        pos = self.positions(addr) if first is None else first
        way = landing // num_sets
        pos_by_slot[landing] = pos[:way] + pos[way + 1 :]
        if self._collect:
            self.stat_installs += 1
            self.stat_relocations += len(chain) - 1
        return landing

    def candidate_slots(self, addr: int, first=None):
        """The replacement walk on primitive slot indices.

        Visits slots in exactly the order of :meth:`candidates` but
        materialises no Candidate objects, and stops at the first
        empty slot (see the fast-path protocol in
        :class:`~repro.arrays.base.CacheArray`).  A resident line
        always sits at one of its own hashed positions, so the
        parent's way is skipped implicitly by the ``visited`` check.
        """
        result = self._walk(addr, first)
        if self._collect:
            self.stat_walks += 1
            self.stat_candidates += len(result[0])
        return result

    def _walk(self, addr: int, first=None):
        tags = self._tags
        pos_by_slot = self._pos_by_slot
        gen = self._walk_gen + 1
        self._walk_gen = gen
        stamps = self._walk_stamp
        slots = self._walk_slots
        slots.clear()
        slots_append = slots.append

        if first is None:
            first = self.positions(addr)

        if len(self._slot_of) == self.num_lines:
            # Full array (the steady state): no slot can be empty, so
            # the per-slot emptiness and count checks disappear.  Each
            # parent's expansion may overshoot R; trimming to R keeps
            # exactly the first R slots in discovery order.  No parent
            # list is built either: _victim_chain() re-derives the
            # victim's path from the level bounds (see _WalkLevels).
            for slot in first:
                if stamps[slot] != gen:
                    stamps[slot] = gen
                    slots_append(slot)
            r = self._r
            bounds = self._walk_bounds
            bounds.clear()
            bounds.hint = -1
            level_start = 0
            n = len(slots)
            bounds.append(n)
            while n < r and level_start < n:
                for pi in range(level_start, n):
                    for slot in pos_by_slot[slots[pi]]:
                        if stamps[slot] != gen:
                            stamps[slot] = gen
                            slots_append(slot)
                    if len(slots) >= r:
                        del slots[r:]
                        bounds.append(r)
                        return slots, bounds, False
                level_start = n
                n = len(slots)
                bounds.append(n)
            return slots, bounds, False

        # First-level positions sit in distinct banks and never collide
        # with each other, so their stamps are set but not checked.
        bounds = self._walk_bounds
        bounds.clear()
        bounds.hint = -1
        n = 0
        for slot in first:
            stamps[slot] = gen
            slots_append(slot)
            n += 1
            if tags[slot] < 0:
                bounds.append(n)
                return slots, bounds, True

        r = self._r
        bounds.append(n)
        level_start = 0
        # Every listed slot is occupied (an empty slot ends the walk
        # immediately), so each level's frontier is exactly the index
        # range the previous level appended -- no frontier lists; and
        # an occupied slot always has its line's positions cached in
        # _pos_by_slot, so expansion is a single list index.
        while n < r and level_start < n:
            level_end = n
            for pi in range(level_start, level_end):
                for slot in pos_by_slot[slots[pi]]:
                    if stamps[slot] != gen:
                        stamps[slot] = gen
                        slots_append(slot)
                        n += 1
                        if tags[slot] < 0:
                            bounds.append(n)
                            bounds.hint = pi
                            return slots, bounds, True
                        if n == r:
                            bounds.append(n)
                            return slots, bounds, False
            bounds.append(n)
            level_start = level_end
        return slots, bounds, False
