"""The Vantage cache controller (Sections 3 and 4 of the paper).

``VantageCache`` implements the *practical* design of Section 4 on top
of any :class:`~repro.arrays.base.CacheArray`:

- the cache is split into a **managed** and an **unmanaged** region by
  tagging lines, never by placement (Section 3.3);
- partition sizes are enforced by **churn-based management**: on every
  replacement, each candidate below its partition's aperture is
  *demoted* to the unmanaged region, and the eviction victim is the
  oldest unmanaged candidate (Section 3.4);
- apertures are never computed: **feedback-based aperture control**
  (Section 4.1) lets partitions outgrow their targets slightly and
  reacts through the demotion-thresholds table;
- demotions never consult exact eviction priorities:
  **setpoint-based demotions** (Section 4.2) demote lines whose
  coarse LRU timestamp falls outside the keep window between the
  per-partition setpoint and current timestamps.

State mirrors Fig 4: per-line partition tag + 8-bit timestamp, and
per-partition registers (CurrentTS, SetpointTS, AccessCounter,
ActualSize, TargetSize, CandsSeen, CandsDemoted, threshold table).

One published ambiguity is resolved here: Section 4.2 and Section 4.3
state opposite setpoint-adjustment directions; we follow Section 4.3
(too many demotions => widen the keep window), which is the stable
negative-feedback direction (see DESIGN.md and
``tests/core/test_setpoint.py``).
"""

from __future__ import annotations

from array import array as _array

from repro.arrays.base import CacheArray, Candidate
from repro.core.config import VantageConfig
from repro.core.feedback import build_threshold_table, lookup_threshold

TS_MOD = 256
#: TS_MOD is a power of two, so hot paths use ``& _TS_MASK`` for the
#: modular timestamp distance instead of ``% TS_MOD``.
_TS_MASK = TS_MOD - 1
#: ``part_of`` value for lines in the unmanaged region.
UNMANAGED = -1
#: Initial keep-window width (timestamp distance between CurrentTS and
#: SetpointTS); feedback moves it from here.
INITIAL_KEEP_WIDTH = 192

from repro.partitioning.base_cache import NO_PART, PartitionedCache


class VantageCache(PartitionedCache):
    """Vantage-partitioned cache (practical controller, LRU base policy).

    Parameters
    ----------
    array:
        Backing array.  Vantage is designed for zcaches and skew
        caches (high R, uniform candidates) but also runs on hashed
        set-associative arrays with weaker guarantees (Fig 10).
    num_partitions:
        Number of partitions in the managed region.
    config:
        Controller tunables; see :class:`VantageConfig`.
    """

    allocation_unit = "lines"

    def __init__(
        self,
        array: CacheArray,
        num_partitions: int,
        config: VantageConfig | None = None,
        shared_policy: str | None = None,
    ):
        super().__init__(array, num_partitions, shared_policy=shared_policy)
        self.config = config if config is not None else VantageConfig()
        n = num_partitions

        # --- Per-line state (the tag extensions of Fig 4). ---
        # ``part_of[slot]`` is the partition for managed lines and
        # ``UNMANAGED`` for unmanaged ones (NO_PART only for empty
        # slots).  line_ts is a flat int64 column like part_of: 8-bit
        # coarse timestamps, one machine word per slot.
        self.line_ts = _array("q", [0]) * array.num_lines

        # --- Per-partition registers. ---
        managed = self.config.managed_lines(array.num_lines)
        base, extra = divmod(managed, n)
        self.target = [base + (1 if p < extra else 0) for p in range(n)]
        self.actual_size = [0] * n
        self.current_ts = [0] * n
        self.keep_width = [INITIAL_KEEP_WIDTH] * n
        self.access_counter = [0] * n
        self.cands_seen = [0] * n
        self.cands_demoted = [0] * n
        self._tables = [self._compile_table(t) for t in self.target]

        # --- Unmanaged-region state. ---
        self.unmanaged_size = 0
        self.unmanaged_ts = 0
        self._unmanaged_counter = 0

        # --- Vantage-specific statistics. ---
        self.demotions = [0] * n
        self.promotions = [0] * n
        self.evictions_unmanaged = 0
        self.evictions_managed = 0
        self.setpoint_widened = [0] * n
        self.setpoint_narrowed = [0] * n
        #: Optional hook ``fn(slot, part)`` called just before a line
        #: of ``part`` is demoted (measurement only).
        self.demotion_hook = None

        # --- Hot-path caches. ---
        # Tick periods (max(1, size >> 4)) memoised until the region
        # size they derive from changes.
        self._tick_period = [1] * n
        self._tick_size = [-1] * n
        self._utick_period = 1
        self._utick_size = -1
        # Dispatch flags: True when the subclass keeps the stock
        # implementation of a per-candidate/per-access hook, letting
        # the hot paths inline it instead of paying a method call.
        cls = type(self)
        self._lru_demotion = cls._demotable is VantageCache._demotable
        self._plain_demote = cls._demote is VantageCache._demote
        self._lru_touch = cls._touch is VantageCache._touch
        self._has_move_hook = cls._move_line_state is not VantageCache._move_line_state
        self._plain_insert = (
            cls._set_inserted_line_state is VantageCache._set_inserted_line_state
        )

    # ------------------------------------------------------------------
    # Configuration / allocation interface.
    # ------------------------------------------------------------------

    @property
    def allocation_total(self) -> int:
        """Lines available for partitioning (the managed region)."""
        return self.config.managed_lines(self.num_lines)

    def _compile_table(self, target: int) -> list[tuple[int, int]]:
        cfg = self.config
        return build_threshold_table(
            target,
            a_max=cfg.a_max,
            slack=cfg.slack,
            entries=cfg.threshold_entries,
            candidates_per_adjust=cfg.candidates_per_adjust,
        )

    def set_allocations(self, units: list[int]) -> None:
        """Install new target sizes, in lines.

        Targets should sum to at most the managed-region size; a target
        of 0 deletes the partition (it drains at full aperture).
        """
        if len(units) != self.num_partitions:
            raise ValueError("allocation vector length mismatch")
        if any(u < 0 for u in units):
            raise ValueError("targets must be non-negative")
        if sum(units) > self.allocation_total:
            raise ValueError(
                f"targets sum to {sum(units)}, above the managed region "
                f"({self.allocation_total} lines)"
            )
        # In place, like the other schemes' allocation registers that
        # batch kernels capture: any reference taken before the epoch
        # sees the new targets.
        self.target[:] = units
        self._tables[:] = [self._compile_table(t) for t in units]

    def partition_size(self, part: int) -> int:
        """Managed-region footprint of ``part`` (the ActualSize register)."""
        return self.actual_size[part]

    def partition_sizes(self) -> list[int]:
        return list(self.actual_size)

    def resize_partition(self, part: int, target_lines: int) -> None:
        """Change one partition's target, leaving the others alone.

        Resizing is cheap in Vantage (Section 3.4): only the target
        register and the threshold table change; capacity moves
        through demotions as the cache runs.
        """
        targets = list(self.target)
        targets[part] = target_lines
        self.set_allocations(targets)

    def delete_partition(self, part: int) -> None:
        """Delete a partition: target 0 compiles to a full-aperture
        threshold table, so its lines drain into the unmanaged region
        and the ID can be reused once :meth:`partition_is_drained`."""
        self.resize_partition(part, 0)

    def partition_is_drained(self, part: int, residual_lines: int = 0) -> bool:
        """Whether a deleted partition's footprint has emptied enough
        for its identifier to be reused."""
        return self.actual_size[part] <= residual_lines

    # ------------------------------------------------------------------
    # Timestamp plumbing.
    # ------------------------------------------------------------------

    def _tick(self, part: int) -> None:
        """Advance ``part``'s access counter; bump timestamps every
        1/16th of the partition's size worth of accesses.  The setpoint
        moves with CurrentTS, so the keep width is unchanged."""
        self.access_counter[part] += 1
        size = self.actual_size[part]
        if size != self._tick_size[part]:
            self._tick_size[part] = size
            period = size >> 4
            self._tick_period[part] = period if period > 0 else 1
        if self.access_counter[part] >= self._tick_period[part]:
            self.access_counter[part] = 0
            self.current_ts[part] = (self.current_ts[part] + 1) & _TS_MASK

    def _tick_unmanaged(self) -> None:
        self._unmanaged_counter += 1
        size = self.unmanaged_size
        if size != self._utick_size:
            self._utick_size = size
            period = size >> 4
            self._utick_period = period if period > 0 else 1
        if self._unmanaged_counter >= self._utick_period:
            self._unmanaged_counter = 0
            self.unmanaged_ts = (self.unmanaged_ts + 1) & _TS_MASK

    def staleness(self, slot: int) -> int:
        """Timestamp distance of the line at ``slot`` within its scope
        (its partition, or the unmanaged region).  Used by monitors."""
        owner = self.part_of[slot]
        if owner == UNMANAGED:
            return (self.unmanaged_ts - self.line_ts[slot]) & _TS_MASK
        return (self.current_ts[owner] - self.line_ts[slot]) & _TS_MASK

    # ------------------------------------------------------------------
    # Setpoint feedback (Section 4.2 mechanics, Section 4.3 direction).
    # ------------------------------------------------------------------

    def _adjust_setpoint(self, part: int) -> None:
        threshold = lookup_threshold(self._tables[part], self.actual_size[part])
        demoted = self.cands_demoted[part]
        if self.actual_size[part] <= self.target[part]:
            # The partition ended the window at/below target: recent
            # demotion bursts overshot (the size gate stopped them),
            # so relax the setpoint.  Without this case a low-churn
            # partition whose demand sits below the smallest table
            # threshold rails at maximum aperture and demotes
            # arbitrarily young lines.
            self._setpoint_demote_less(part)
        elif demoted > threshold:
            self._setpoint_demote_less(part)
        elif demoted < threshold:
            self._setpoint_demote_more(part)
        self.cands_demoted[part] = 0
        self.cands_seen[part] = 0

    def _setpoint_demote_less(self, part: int) -> None:
        """Demoting too fast: widen the keep window one step."""
        if self.keep_width[part] < TS_MOD - 1:
            self.keep_width[part] += 1
            self.setpoint_widened[part] += 1

    def _setpoint_demote_more(self, part: int) -> None:
        if self.keep_width[part] > 0:
            self.keep_width[part] -= 1
            self.setpoint_narrowed[part] += 1

    # ------------------------------------------------------------------
    # Access path.
    # ------------------------------------------------------------------

    def access(self, addr: int, part: int = 0) -> bool:
        # Stats bookkeeping is inlined (vs _record_access) -- this is
        # the hottest method of a simulation.
        st = self.stats
        slot = self._lookup(addr)
        if slot is not None:
            self._hit(slot, part)
            st.accesses[part] += 1
            st.hits[part] += 1
            return True
        st.accesses[part] += 1
        st.misses[part] += 1
        self._miss(addr, part)
        return False

    def _hit(self, slot: int, part: int) -> None:
        part_of = self.part_of
        owner = part_of[slot]
        if owner == UNMANAGED:
            # Promotion: the line re-joins the accessing partition.
            self.unmanaged_size -= 1
            part_of[slot] = part
            self.actual_size[part] += 1
            self.promotions[part] += 1
            if self._shared_code:
                self.touched_by[slot] |= 1 << part
            owner = part
        elif self._shared_code and owner != part:
            owner = self._shared_hit(slot, part)
            if owner == UNMANAGED:
                # promote-to-shared parked the line in the unmanaged
                # region (already stamped/ticked there); no managed
                # partition state to update.
                return
        if self._lru_touch:
            self.line_ts[slot] = self.current_ts[owner]
        else:
            self._touch(slot, owner)
        # _tick(owner), inlined: this runs once per hit.
        count = self.access_counter[owner] + 1
        size = self.actual_size[owner]
        if size != self._tick_size[owner]:
            self._tick_size[owner] = size
            period = size >> 4
            self._tick_period[owner] = period if period > 0 else 1
        if count >= self._tick_period[owner]:
            self.access_counter[owner] = 0
            self.current_ts[owner] = (self.current_ts[owner] + 1) & _TS_MASK
        else:
            self.access_counter[owner] = count

    def _touch(self, slot: int, owner: int) -> None:
        """Refresh the base-policy rank of a line on a hit (LRU:
        stamp it with the partition's current timestamp)."""
        self.line_ts[slot] = self.current_ts[owner]

    def _miss(self, addr: int, part: int) -> None:
        array = self.array
        fast = array.candidate_slots(addr)
        if fast is not None:
            slots, parents, has_empty = fast
            if has_empty:
                # Generation stopped at the first empty slot.
                index = len(slots) - 1
            else:
                index = self._replacement_index(slots)
            victim = array.make_candidate(slots, parents, index)
        else:
            # Arrays without a fast path still work via Candidate lists.
            candidates = array.candidates(addr)
            victim = self._first_empty(candidates)
            if victim is None:
                index = self._replacement_index([c.slot for c in candidates])
                victim = candidates[index]
        self._finish_install(addr, part, victim)

    def _replacement_index(self, slots: list[int]) -> int:
        """Demotion checks over all candidate slots, then victim
        selection; returns the index of the victim in ``slots``."""
        part_of = self.part_of
        line_ts = self.line_ts
        actual = self.actual_size
        target = self.target
        cands_seen = self.cands_seen
        current_ts = self.current_ts
        keep_width = self.keep_width
        cands_demoted = self.cands_demoted
        demotions = self.demotions
        c_adjust = self.config.candidates_per_adjust
        lru_demotion = self._lru_demotion
        # Demotions can be inlined only while no measurement hook is
        # installed (the hook can be set/cleared at runtime).
        plain_demote = self._plain_demote and self.demotion_hook is None

        first_demoted = -1
        best_unmanaged = -1
        best_unmanaged_age = -1
        # unmanaged_ts must track _demote, which advances it mid-scan.
        uts = self.unmanaged_ts
        for i, slot in enumerate(slots):
            owner = part_of[slot]
            if owner == UNMANAGED:
                age = (uts - line_ts[slot]) & _TS_MASK
                if age > best_unmanaged_age:
                    best_unmanaged_age = age
                    best_unmanaged = i
                continue
            # Managed candidate: demotion check.
            seen = cands_seen[owner] + 1
            cands_seen[owner] = seen
            if actual[owner] > target[owner]:
                if lru_demotion:
                    demote = (
                        (current_ts[owner] - line_ts[slot]) & _TS_MASK
                    ) > keep_width[owner]
                else:
                    demote = self._demotable(slot, owner)
                if demote:
                    if plain_demote:
                        # _demote + _tick_unmanaged, inlined.
                        actual[owner] -= 1
                        cands_demoted[owner] += 1
                        demotions[owner] += 1
                        part_of[slot] = UNMANAGED
                        line_ts[slot] = uts
                        size = self.unmanaged_size + 1
                        self.unmanaged_size = size
                        count = self._unmanaged_counter + 1
                        if size != self._utick_size:
                            self._utick_size = size
                            period = size >> 4
                            self._utick_period = period if period > 0 else 1
                        if count >= self._utick_period:
                            self._unmanaged_counter = 0
                            uts = (uts + 1) & _TS_MASK
                            self.unmanaged_ts = uts
                        else:
                            self._unmanaged_counter = count
                    else:
                        self._demote(slot, owner)
                        uts = self.unmanaged_ts
                    if first_demoted < 0:
                        first_demoted = i
            if seen >= c_adjust:
                self._adjust_setpoint(owner)

        if first_demoted < 0:
            self._on_no_demotions(slots)

        if best_unmanaged >= 0:
            self.evictions_unmanaged += 1
            self._evict_slot(slots[best_unmanaged])
            return best_unmanaged

        # Forced eviction from the managed region (rare if u is sized
        # correctly): prefer a line we just demoted; otherwise evict
        # the stalest line of an over-target partition -- charging the
        # transient to the partitions that exceed their allocations
        # preserves isolation for the ones that do not -- and nudge
        # that partition's setpoint, since a forced eviction means its
        # demotions are lagging its churn.
        self.evictions_managed += 1
        if first_demoted >= 0:
            victim = first_demoted
        else:
            over = [
                i
                for i, slot in enumerate(slots)
                if actual[part_of[slot]] > target[part_of[slot]]
            ]
            pool = over if over else range(len(slots))
            victim = max(pool, key=lambda i: self.staleness(slots[i]))
            self._setpoint_demote_more(part_of[slots[victim]])
        self._evict_slot(slots[victim])
        return victim

    def _shared_hit(self, slot: int, requester: int) -> int:
        """Vantage's on-shared-hit policies.

        ``migrate-to-requester`` transfers the line (and its budget)
        between managed partitions.  ``promote-to-shared`` uses the
        unmanaged region as the shared pool: the line is parked there
        (stamped with the unmanaged clock, *not* counted as a churn
        demotion, so setpoint feedback is unaffected) and the ordinary
        unmanaged-hit promotion re-claims it for whichever partition
        touches it next.  Returns the line's owner afterwards
        (``UNMANAGED`` means the caller has nothing left to stamp).
        """
        self.touched_by[slot] |= 1 << requester
        self.shared_hits[requester] += 1
        code = self._shared_code
        if code == 2:  # migrate-to-requester
            owner = self.part_of[slot]
            self.part_of[slot] = requester
            self.actual_size[owner] -= 1
            self.actual_size[requester] += 1
            self.shared_moves[requester] += 1
            return requester
        if code == 3:  # promote-to-shared
            owner = self.part_of[slot]
            self.actual_size[owner] -= 1
            self.part_of[slot] = UNMANAGED
            self.line_ts[slot] = self.unmanaged_ts
            self.unmanaged_size += 1
            self.shared_moves[requester] += 1
            self._tick_unmanaged()
            return UNMANAGED
        return self.part_of[slot]

    def _demotable(self, slot: int, owner: int) -> bool:
        """Setpoint check: demote lines whose timestamp falls outside
        the keep window between SetpointTS and CurrentTS (Fig 3b)."""
        dist = (self.current_ts[owner] - self.line_ts[slot]) % TS_MOD
        return dist > self.keep_width[owner]

    def _on_no_demotions(self, slots: list[int]) -> None:
        """Hook for base policies that must age lines when a full
        candidate pass demotes nothing (RRIP); LRU ages via time."""

    def _demote(self, slot: int, owner: int) -> None:
        if self.demotion_hook is not None:
            self.demotion_hook(slot, owner)
        self.actual_size[owner] -= 1
        self.cands_demoted[owner] += 1
        self.demotions[owner] += 1
        self.part_of[slot] = UNMANAGED
        self.line_ts[slot] = self.unmanaged_ts
        self.unmanaged_size += 1
        self._tick_unmanaged()

    def _evict_slot(self, slot: int) -> None:
        owner = self.part_of[slot]
        if owner == UNMANAGED:
            # Ownership was erased at demotion time; unmanaged
            # evictions are tracked by evictions_unmanaged/managed.
            self.unmanaged_size -= 1
            if self.eviction_hook is not None:
                self.eviction_hook(slot, UNMANAGED)
        else:
            self.actual_size[owner] -= 1
            self.stats.evictions[owner] += 1
            if self.eviction_hook is not None:
                self.eviction_hook(slot, owner)
        if self._shared_code:
            self.touched_by[slot] = 0
        self.part_of[slot] = NO_PART

    def _finish_install(self, addr: int, part: int, victim: Candidate) -> None:
        moves = self.array.install(addr, victim)
        part_of = self.part_of
        line_ts = self.line_ts
        if moves:
            move_hook = self._has_move_hook
            for src, dst in moves:
                part_of[dst] = part_of[src]
                part_of[src] = NO_PART
                line_ts[dst] = line_ts[src]
                if move_hook:
                    self._move_line_state(src, dst)
        landing = victim.path[0]
        if self._shared_code:
            touched_by = self.touched_by
            for src, dst in moves:
                touched_by[dst] = touched_by[src]
                touched_by[src] = 0
            touched_by[landing] = 1 << part
        part_of[landing] = part
        if self._plain_insert:
            line_ts[landing] = self.current_ts[part]
        else:
            self._set_inserted_line_state(landing, part, addr)
        size = self.actual_size[part] + 1
        self.actual_size[part] = size
        # _tick(part), inlined: this runs once per miss.
        count = self.access_counter[part] + 1
        if size != self._tick_size[part]:
            self._tick_size[part] = size
            period = size >> 4
            self._tick_period[part] = period if period > 0 else 1
        if count >= self._tick_period[part]:
            self.access_counter[part] = 0
            self.current_ts[part] = (self.current_ts[part] + 1) & _TS_MASK
        else:
            self.access_counter[part] = count

    def _move_line_state(self, src: int, dst: int) -> None:
        """Hook: relocate extra per-line base-policy state (RRPVs)."""

    def _set_inserted_line_state(self, slot: int, part: int, addr: int) -> None:
        """Base-policy metadata for a freshly inserted line (LRU:
        stamp with the partition's current timestamp)."""
        self.line_ts[slot] = self.current_ts[part]

    # ------------------------------------------------------------------
    # Introspection helpers.
    # ------------------------------------------------------------------

    def managed_eviction_fraction(self) -> float:
        """Fraction of all evictions forced out of the managed region
        (the y-axis of Figure 9b)."""
        total = self.evictions_managed + self.evictions_unmanaged
        return self.evictions_managed / total if total else 0.0

    def region_occupancy(self) -> tuple[int, int]:
        """(managed lines, unmanaged lines) currently resident."""
        return sum(self.actual_size), self.unmanaged_size

    def register_stats(self, group) -> None:
        super().register_stats(group)
        v = group.group("vantage", "Vantage controller registers")
        v.stat(
            "demotions",
            lambda: list(self.demotions),
            "per-partition lines demoted to the unmanaged region",
        )
        v.stat(
            "promotions",
            lambda: list(self.promotions),
            "per-partition lines promoted back on an unmanaged hit",
        )
        v.stat(
            "evictions_unmanaged",
            lambda: self.evictions_unmanaged,
            "evictions taken from the unmanaged region",
        )
        v.stat(
            "evictions_managed",
            lambda: self.evictions_managed,
            "forced evictions taken from the managed region",
        )
        v.stat(
            "setpoint_widened",
            lambda: list(self.setpoint_widened),
            "per-partition keep-window widening steps (demote less)",
        )
        v.stat(
            "setpoint_narrowed",
            lambda: list(self.setpoint_narrowed),
            "per-partition keep-window narrowing steps (demote more)",
        )
        v.stat(
            "keep_width",
            lambda: list(self.keep_width),
            "per-partition keep-window width (SetpointTS distance)",
        )
        v.stat(
            "target_size",
            lambda: list(self.target),
            "per-partition target sizes, in lines",
        )
        v.stat(
            "actual_size",
            lambda: list(self.actual_size),
            "per-partition managed-region footprints, in lines",
        )
        v.stat(
            "unmanaged_size",
            lambda: self.unmanaged_size,
            "unmanaged-region occupancy, in lines",
        )
