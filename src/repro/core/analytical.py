"""Idealised Vantage controller used to validate the models (Sec 6.2).

The paper checks its practical controller against an "unrealistic"
configuration that uses feedback-based aperture control *with perfect
knowledge of the apertures* instead of setpoint-based demotions.  This
class implements that configuration: on (a sliding window of) every
miss it evaluates the exact transfer function of Equation 7 and demotes
precisely the top-``A_i`` fraction of each partition's lines by age,
derived from an exact per-partition timestamp histogram rather than a
feedback-adjusted setpoint.

Running this controller and the practical :class:`VantageCache` on the
same workloads should produce near-identical behaviour -- that is the
claim ``benchmarks/test_sec62_model_validation.py`` reproduces.

:class:`VantageModel` is the reusable closed-form core of that
controller: the Eq. 7 transfer function, which the analytical cache
evaluates for its exact-aperture thresholds.
"""

from __future__ import annotations

from repro.arrays.base import CacheArray
from repro.core.cache import TS_MOD, UNMANAGED, VantageCache
from repro.core.config import VantageConfig
from repro.analysis.sizing import aperture


class VantageModel:
    """The Eq. 7 transfer function.

    Parameters
    ----------
    config:
        Controller tunables (``a_max``, ``slack``).
    """

    def __init__(self, config: VantageConfig):
        self.config = config

    def aperture(self, size: float, target: float) -> float:
        """Equation 7: the fraction of this partition's candidates that
        should be demoted at its current ``size``."""
        cfg = self.config
        return aperture(size, target, cfg.a_max, cfg.slack)


class AnalyticalVantageCache(VantageCache):
    """Vantage with exact apertures derived from timestamp histograms.

    Parameters
    ----------
    recompute_interval:
        Misses between demotion-threshold recomputations.  Each
        recomputation walks one 256-bin histogram per partition; the
        default keeps the idealised controller fast while tracking
        apertures far more often than sizes can drift.
    """

    def __init__(
        self,
        array: CacheArray,
        num_partitions: int,
        config: VantageConfig | None = None,
        recompute_interval: int = 16,
    ):
        super().__init__(array, num_partitions, config)
        self._hist = [[0] * TS_MOD for _ in range(num_partitions)]
        self._threshold_dist = [TS_MOD - 1] * num_partitions
        self._recompute_interval = recompute_interval
        self._misses_since_recompute = 0
        self._model = VantageModel(self.config)
        self.recomputes = 0
        self.recompute_bins = 0

    @property
    def model(self) -> VantageModel:
        """The closed-form Eq. 7 model this controller evaluates."""
        return self._model

    # ------------------------------------------------------------------
    # Exact-aperture demotion predicate.
    # ------------------------------------------------------------------

    def _demotable(self, slot: int, owner: int) -> bool:
        dist = (self.current_ts[owner] - self.line_ts[slot]) % TS_MOD
        return dist > self._threshold_dist[owner]

    def _adjust_setpoint(self, part: int) -> None:
        # No feedback: thresholds come straight from the histograms.
        self.cands_demoted[part] = 0
        self.cands_seen[part] = 0

    def _miss(self, addr: int, part: int) -> None:
        self._misses_since_recompute += 1
        if self._misses_since_recompute >= self._recompute_interval:
            self._misses_since_recompute = 0
            self._recompute_thresholds()
        super()._miss(addr, part)

    def _recompute_thresholds(self) -> None:
        self.recomputes += 1
        bins = 0
        for p in range(self.num_partitions):
            size = self.actual_size[p]
            if size <= 0:
                self._threshold_dist[p] = TS_MOD - 1
                continue
            a = self._model.aperture(size, self.target[p])
            budget = a * size
            hist = self._hist[p]
            cur = self.current_ts[p]
            cum = 0
            threshold = -1
            # Oldest lines first: find the smallest distance D such
            # that at most `budget` lines are strictly older than D.
            for dist in range(TS_MOD - 1, -1, -1):
                bins += 1
                count = hist[(cur - dist) % TS_MOD]
                if cum + count > budget:
                    threshold = dist
                    break
                cum += count
            self._threshold_dist[p] = threshold if threshold >= 0 else -1
        self.recompute_bins += bins

    # ------------------------------------------------------------------
    # Histogram maintenance over every line transition.
    # ------------------------------------------------------------------

    def _hit(self, slot: int, part: int) -> None:
        owner_before = self.part_of[slot]
        ts_before = self.line_ts[slot]
        super()._hit(slot, part)
        owner_after = self.part_of[slot]
        if owner_before != UNMANAGED:
            self._hist[owner_before][ts_before] -= 1
        self._hist[owner_after][self.line_ts[slot]] += 1

    def _set_inserted_line_state(self, slot: int, part: int, addr: int) -> None:
        super()._set_inserted_line_state(slot, part, addr)
        self._hist[part][self.line_ts[slot]] += 1

    def _demote(self, slot: int, owner: int) -> None:
        self._hist[owner][self.line_ts[slot]] -= 1
        super()._demote(slot, owner)

    def _evict_slot(self, slot: int) -> None:
        owner = self.part_of[slot]
        if owner >= 0:
            self._hist[owner][self.line_ts[slot]] -= 1
        super()._evict_slot(slot)

    def register_stats(self, group) -> None:
        super().register_stats(group)
        a = group.group("analytical", "exact-aperture controller state")
        a.stat(
            "threshold_dist",
            lambda: list(self._threshold_dist),
            "per-partition demotion thresholds (timestamp distance)",
        )
        a.stat(
            "recomputes",
            lambda: self.recomputes,
            "histogram threshold recomputations performed",
        )
        a.stat(
            "recompute_bins",
            lambda: self.recompute_bins,
            "histogram bins walked across all recomputations",
        )
        a.stat(
            "recompute_interval",
            lambda: self._recompute_interval,
            "misses between threshold recomputations",
        )
