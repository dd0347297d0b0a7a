"""Cache-array abstraction shared by every array organisation.

A *cache array* (following the framework of the zcache paper [21])
implements associative lookups and, on each replacement, produces a
list of *replacement candidates*.  Everything above the array -- the
replacement policy, the partitioning scheme, the Vantage controller --
only ever sees candidates and picks one to evict; the array then
installs the incoming line, performing any internal relocations (for
zcaches) and reporting the slot moves so per-line metadata kept by
higher layers can follow the lines.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from array import array
from collections import namedtuple
from typing import Iterator

from repro import telemetry

#: Sentinel stored in the flat tag column for an empty slot.  Line
#: addresses are non-negative, so ``tag < 0`` is the emptiness test on
#: the hot path (``addr_at`` still presents ``None`` to callers).
EMPTY = -1

#: The process-wide slot table: entry ``i`` is *the* int object for
#: slot ``i``.  Every slot an array keeps in a Python container (the
#: ``_slot_of`` values, the skew/zcache position tuples, PIPP's
#: chains) is taken from here, so a 131,072-line array stores pointers
#: to one shared int per slot instead of a freshly boxed int per entry
#: (an index column's ``array('q')`` and ``h & mask`` both box a new
#: object on every read).  Grown by :func:`slot_ints` when an array
#: is built, never at import; it only ever grows, so the largest
#: array built so far sizes it.
_SLOT_INTS: list[int] = []


def slot_ints(num_lines: int) -> list[int]:
    """The slot table (:data:`_SLOT_INTS`), grown to at least
    ``num_lines`` entries.  Callers keep the returned list: it is the
    same object for the life of the process."""
    table = _SLOT_INTS
    if len(table) < num_lines:
        table.extend(range(len(table), num_lines))
    return table


class Candidate(namedtuple("Candidate", ("slot", "addr", "path", "way"))):
    """One replacement option returned by :meth:`CacheArray.candidates`.

    A namedtuple (not a dataclass) with empty ``__slots__`` because
    millions can be created on the hot path of a simulation; the fast
    path (:meth:`CacheArray.candidate_slots`) avoids materialising
    them at all and only builds the final victim via
    :meth:`CacheArray.make_candidate`.

    Attributes
    ----------
    slot:
        Global slot index of the line that would be evicted.
    addr:
        Line address stored at ``slot``, or ``None`` if the slot is
        empty (installing there evicts nothing).
    path:
        Chain of slots from the incoming line's landing slot down to
        ``slot``.  For set-associative and skew-associative arrays this
        is always ``(slot,)``.  For zcaches, choosing a deeper
        candidate relocates each line on the path one step down:
        ``path[i]``'s line moves to ``path[i+1]``, and the incoming
        line lands in ``path[0]``.
    way:
        The way that ``slot`` belongs to.  Way-partitioning uses this
        to restrict victims to a partition's assigned ways.
    """

    __slots__ = ()

    @property
    def is_empty(self) -> bool:
        return self.addr is None


class CacheArray(ABC):
    """Associative storage for line addresses.

    Concrete arrays define the geometry (how addresses map to slots)
    and the candidate-generation process; this base class owns the
    tag store and the address-to-slot index.

    Line addresses are plain non-negative integers (byte addresses
    divided by the line size); the array never interprets them beyond
    hashing.
    """

    def __init__(self, num_lines: int, num_ways: int):
        if num_lines <= 0:
            raise ValueError(f"num_lines must be positive, got {num_lines}")
        if num_ways <= 0 or num_lines % num_ways:
            raise ValueError(
                f"num_lines ({num_lines}) must be a positive multiple of "
                f"num_ways ({num_ways})"
            )
        self.num_lines = num_lines
        self.num_ways = num_ways
        self.num_sets = num_lines // num_ways
        # Structure-of-arrays tag column: one signed 64-bit word per
        # slot (EMPTY for free slots) instead of a list of PyObject
        # pointers -- 8 bytes/slot regardless of address magnitude.
        self._tags = array("q", [EMPTY]) * num_lines
        # Bounded address->slot index: one entry per *resident* line,
        # so its size can never exceed num_lines.  Its values come
        # from the shared slot table.
        self._slot_of: dict[int, int] = {}
        self._slot_ints = slot_ints(num_lines)
        # Scratch buffer for install_walk's relocation report: flat
        # (src, dst) pairs, overwritten on every call.
        self._install_moves: list[int] = []
        # Telemetry counters (plain ints; pull-based leaves read them
        # at snapshot time).  ``_collect`` is latched at construction
        # so disabled telemetry costs one attribute read per walk.
        self._collect = telemetry.enabled()
        self.stat_walks = 0
        self.stat_candidates = 0
        self.stat_installs = 0
        self.stat_relocations = 0

    # ------------------------------------------------------------------
    # Geometry hooks implemented by subclasses.
    # ------------------------------------------------------------------

    @property
    @abstractmethod
    def candidates_per_miss(self) -> int:
        """Nominal number of replacement candidates (R in the paper)."""

    @abstractmethod
    def positions(self, addr: int) -> tuple[int, ...]:
        """Slots where ``addr`` may directly reside (one per way)."""

    @abstractmethod
    def candidates(self, addr: int) -> list[Candidate]:
        """Replacement options for a miss on ``addr``.

        Empty slots are reported as candidates with ``addr=None``;
        callers normally install into an empty candidate when one
        exists, since that evicts nothing.
        """

    # ------------------------------------------------------------------
    # Fast-path candidate protocol.
    # ------------------------------------------------------------------
    #
    # ``candidates()`` materialises one Candidate per replacement
    # option -- millions of short-lived namedtuples per simulation.
    # The fast path works on plain slot indices instead and only
    # builds the single Candidate that is actually evicted:
    #
    #   1. ``candidate_slots(addr)`` returns ``(slots, parents,
    #      has_empty)``.  ``slots`` is a sequence (list or range) of
    #      candidate slots in exactly the discovery order of
    #      ``candidates()``.  ``parents`` is an *opaque descriptor*
    #      consumed only by ``make_candidate`` -- a per-slot parent
    #      index list (-1 for first-level candidates), ``None`` when
    #      every path is single-slot, or an array-private encoding.
    #      When ``has_empty`` is true, generation stopped at the first
    #      empty slot, which is ``slots[-1]`` -- semantically
    #      identical to a full generation followed by "install into
    #      the first empty candidate", since callers never inspect
    #      candidates past the one they install into.  Both ``slots``
    #      and ``parents`` may be scratch objects owned by the array:
    #      they are valid only until the next walk, so callers must
    #      consume (or copy) them within the current miss.
    #   2. ``make_candidate(slots, parents, i)`` reconstructs the full
    #      Candidate (path included) for the chosen index.
    #
    # The base implementation returns ``None`` (no fast path); callers
    # must then fall back to ``candidates()``.
    #
    # ``candidate_slots`` and ``install_walk`` take an optional
    # ``first``: ``addr``'s own hash result when the caller already has
    # it -- its entry in the array's ``index_column`` (the set index of
    # a set-associative array, the per-way positions tuple of a skew
    # array or zcache, as slot-table ints since the array stores
    # them).  Batch kernels pass it; the scalar paths leave it ``None``
    # and the array hashes ``addr``.

    def index_column(self, chunk):
        """The array's hash of every address in a trace chunk, as an
        ``array('q')`` column (see
        :func:`~repro.arrays.hashing.hash_column`), or ``None`` for
        arrays that index without hashing."""
        return None

    def candidate_slots(
        self, addr: int, first=None
    ) -> tuple[list[int], list[int] | None, bool] | None:
        """Fast-path candidate generation; ``None`` if unsupported."""
        return None

    def way_of_slot(self, slot: int) -> int:
        """The way ``slot`` belongs to (layout-dependent)."""
        return slot % self.num_ways

    def make_candidate(
        self, slots: list[int], parents: list[int] | None, index: int
    ) -> Candidate:
        """Materialise the :class:`Candidate` for ``slots[index]``."""
        slot = slots[index]
        if parents is None:
            path: tuple[int, ...] = (slot,)
        else:
            parent = parents[index]
            if parent < 0:
                path = (slot,)
            else:
                chain = [slot]
                while parent >= 0:
                    chain.append(slots[parent])
                    parent = parents[parent]
                chain.reverse()
                path = tuple(chain)
        tag = self._tags[slot]
        return Candidate(
            slot, tag if tag >= 0 else None, path, self.way_of_slot(slot)
        )

    # ------------------------------------------------------------------
    # Common operations.
    # ------------------------------------------------------------------

    def lookup(self, addr: int) -> int | None:
        """Slot holding ``addr``, or ``None`` on a miss."""
        slot = self._slot_of.get(addr)
        return slot

    def addr_at(self, slot: int) -> int | None:
        tag = self._tags[slot]
        return tag if tag >= 0 else None

    def positions_into(self, addr: int, buf: list[int]) -> int:
        """Write ``positions(addr)`` into the preallocated ``buf``.

        Returns the number of positions written; ``buf`` must be at
        least ``num_ways`` long (its tail is left untouched).  The
        default delegates to :meth:`positions`; geometry-aware
        subclasses fill ``buf`` without materialising a tuple, so hit
        paths polling several possible locations can reuse one buffer
        across accesses.
        """
        pos = self.positions(addr)
        n = len(pos)
        buf[:n] = pos
        return n

    def install_walk(
        self, addr: int, slots, parents, index: int, first=None
    ) -> int:
        """Fused ``make_candidate(slots, parents, index)`` + ``install``.

        Installs ``addr`` into the victim ``slots[index]`` (evicting
        the resident line if the slot is occupied) without building the
        intermediate :class:`Candidate`, and returns the slot the new
        line landed in.  Relocations (zcache paths) are reported in
        :attr:`_install_moves` as flat ``src, dst`` pairs in execution
        order -- a scratch buffer overwritten by the next call.  The
        arguments must come from the immediately preceding
        ``candidate_slots(addr)`` walk; validation is skipped.
        """
        slot = slots[index]
        self._install_moves.clear()
        if self._tags[slot] >= 0:
            self._remove(slot)
        self._place(addr, slot, first)
        if self._collect:
            self.stat_installs += 1
        return slot

    def install(self, addr: int, victim: Candidate) -> list[tuple[int, int]]:
        """Install ``addr``, evicting ``victim`` (if non-empty).

        Performs the relocations implied by ``victim.path`` and returns
        them as ``(from_slot, to_slot)`` pairs in execution order so
        callers can move per-slot metadata alongside the lines.  The
        incoming line always lands in ``path[0]``.
        """
        if addr in self._slot_of:
            raise ValueError(f"address {addr:#x} is already present")
        path = victim.path
        if victim.slot != path[-1]:
            raise ValueError("victim slot does not terminate its path")
        if victim.addr is not None:
            self._remove(path[-1])
        moves: list[tuple[int, int]] = []
        for i in range(len(path) - 1, 0, -1):
            self._move(path[i - 1], path[i])
            moves.append((path[i - 1], path[i]))
        self._place(addr, path[0])
        if self._collect:
            self.stat_installs += 1
            self.stat_relocations += len(moves)
        return moves

    def invalidate(self, addr: int) -> int | None:
        """Remove ``addr`` if present; returns the freed slot."""
        slot = self._slot_of.get(addr)
        if slot is not None:
            self._remove(slot)
        return slot

    def occupancy(self) -> int:
        """Number of valid lines currently stored."""
        return len(self._slot_of)

    def register_stats(self, group) -> None:
        """Register the array's counters into a stats tree group."""
        group.stat(
            "walks",
            lambda: self.stat_walks,
            "fast-path replacement walks performed",
        )
        group.stat(
            "candidates",
            lambda: self.stat_candidates,
            "replacement candidates inspected across all walks",
        )
        group.stat(
            "installs",
            lambda: self.stat_installs,
            "lines installed",
        )
        group.stat(
            "relocations",
            lambda: self.stat_relocations,
            "line relocations performed during installs (zcache paths)",
        )
        group.stat(
            "occupancy",
            lambda: len(self._slot_of),
            "valid lines currently resident",
        )

    def contents(self) -> Iterator[tuple[int, int]]:
        """Iterate over ``(slot, addr)`` for every valid line."""
        return ((slot, addr) for addr, slot in self._slot_of.items())

    def __contains__(self, addr: int) -> bool:
        return addr in self._slot_of

    def __len__(self) -> int:
        return self.num_lines

    # ------------------------------------------------------------------
    # Internal tag-store mutations.
    # ------------------------------------------------------------------

    def _place(self, addr: int, slot: int, first=None) -> None:
        """Put ``addr`` in the empty ``slot`` (``first``: ``addr``'s
        column entry, for subclasses that keep per-slot positions)."""
        if self._tags[slot] >= 0:
            raise ValueError(f"slot {slot} is occupied")
        self._tags[slot] = addr
        self._slot_of[addr] = self._slot_ints[slot]

    def _remove(self, slot: int) -> None:
        addr = self._tags[slot]
        if addr < 0:
            raise ValueError(f"slot {slot} is already empty")
        self._tags[slot] = EMPTY
        del self._slot_of[addr]

    def _move(self, src: int, dst: int) -> None:
        addr = self._tags[src]
        if addr < 0:
            raise ValueError(f"cannot move from empty slot {src}")
        if self._tags[dst] >= 0:
            raise ValueError(f"cannot move into occupied slot {dst}")
        self._tags[src] = EMPTY
        self._tags[dst] = addr
        self._slot_of[addr] = self._slot_ints[dst]
