"""Vantage-DRRIP: Vantage with an RRIP base policy (Section 6.2).

Setpoint-based demotions generalise beyond coarse-timestamp LRU: with
RRIP as the base policy each partition keeps a *setpoint RRPV* instead
of a setpoint timestamp, and candidates whose re-reference prediction
value is at or above the setpoint are demoted.  The same negative
feedback drives the setpoint from the demotion-thresholds table.

Per the paper: lines from partitions at or below their target size are
never aged, and the SRRIP-vs-BRRIP decision is made per partition
(which makes the policy automatically thread-aware).  The paper picks
per-partition policies with modified UMONs at resize time; we duel
per-partition with leader constituencies (TADIP-style), which is
self-contained, adapts at the same timescale, and needs no extra
monitor hardware.
"""

from __future__ import annotations

import random
from array import array as _array

from repro.arrays.base import CacheArray
from repro.core.cache import VantageCache
from repro.core.config import VantageConfig
from repro.replacement.rrip import (
    BRRIP_EPSILON,
    LEADER_PERIOD,
    LEADERS_PER_POLICY,
    PSEL_MAX,
    RRPV_MAX,
)


class VantageDRRIPCache(VantageCache):
    """Vantage with a per-partition DRRIP base policy.

    Inherits the whole Vantage control system (regions, churn-based
    management, feedback, thresholds); only the per-line rank metadata
    and the demotion predicate change.
    """

    def __init__(
        self,
        array: CacheArray,
        num_partitions: int,
        config: VantageConfig | None = None,
        seed: int = 0,
    ):
        super().__init__(array, num_partitions, config)
        self.rrpv = _array("q", [RRPV_MAX]) * array.num_lines
        # Setpoint RRPV in [1, RRPV_MAX + 1]; RRPV_MAX + 1 demotes
        # nothing, 1 demotes everything not predicted imminent.
        self.setpoint_rrpv = [RRPV_MAX] * num_partitions
        self.psel = [PSEL_MAX // 2] * num_partitions
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------
    # Per-line metadata hooks.
    # ------------------------------------------------------------------

    def _touch(self, slot: int, owner: int) -> None:
        super()._touch(slot, owner)
        self.rrpv[slot] = 0

    def _move_line_state(self, src: int, dst: int) -> None:
        self.rrpv[dst] = self.rrpv[src]

    def _set_inserted_line_state(self, slot: int, part: int, addr: int) -> None:
        super()._set_inserted_line_state(slot, part, addr)
        leader = self._leader(addr, part)
        if leader == "srrip":
            self._vote(part, +1)
            use_srrip = True
        elif leader == "brrip":
            self._vote(part, -1)
            use_srrip = False
        else:
            use_srrip = self.psel[part] <= PSEL_MAX // 2
        if use_srrip or self._rng.random() < BRRIP_EPSILON:
            self.rrpv[slot] = RRPV_MAX - 1
        else:
            self.rrpv[slot] = RRPV_MAX

    # ------------------------------------------------------------------
    # Demotion predicate and setpoint feedback on RRPVs.
    # ------------------------------------------------------------------

    def _demotable(self, slot: int, owner: int) -> bool:
        return self.rrpv[slot] >= self.setpoint_rrpv[owner]

    def _setpoint_demote_less(self, part: int) -> None:
        if self.setpoint_rrpv[part] <= RRPV_MAX:
            self.setpoint_rrpv[part] += 1
            self.setpoint_widened[part] += 1

    def _setpoint_demote_more(self, part: int) -> None:
        if self.setpoint_rrpv[part] > 1:
            self.setpoint_rrpv[part] -= 1
            self.setpoint_narrowed[part] += 1

    def _on_no_demotions(self, slots: list[int]) -> None:
        """RRIP aging, restricted to partitions above target size."""
        rrpv = self.rrpv
        part_of = self.part_of
        actual = self.actual_size
        target = self.target
        for slot in slots:
            owner = part_of[slot]
            if owner < 0:  # UNMANAGED or empty
                continue
            if actual[owner] > target[owner] and rrpv[slot] < RRPV_MAX:
                rrpv[slot] += 1

    # ------------------------------------------------------------------
    # Per-partition SRRIP/BRRIP duelling.
    # ------------------------------------------------------------------

    @staticmethod
    def _constituency(addr: int) -> int:
        return (addr * 0x9E3779B97F4A7C15 >> 13) % LEADER_PERIOD

    def _leader(self, addr: int, part: int) -> str | None:
        group = (self._constituency(addr) + part * 2 * LEADERS_PER_POLICY) % LEADER_PERIOD
        if group < LEADERS_PER_POLICY:
            return "srrip"
        if group < 2 * LEADERS_PER_POLICY:
            return "brrip"
        return None

    def _vote(self, part: int, delta: int) -> None:
        self.psel[part] = min(PSEL_MAX, max(0, self.psel[part] + delta))

    def register_stats(self, group) -> None:
        super().register_stats(group)
        d = group.group("drrip", "per-partition DRRIP duelling state")
        d.stat(
            "setpoint_rrpv",
            lambda: list(self.setpoint_rrpv),
            "per-partition setpoint RRPVs (demotion thresholds)",
        )
        d.stat(
            "psel",
            lambda: list(self.psel),
            "per-partition SRRIP/BRRIP policy selectors",
        )
