"""Tests for the Lookahead allocation algorithm and the UCP policy."""

import itertools
import random

import pytest

from repro import lazy
from repro.allocation import UCPPolicy, UMonitor, lookahead_allocate


def brute_force_best(curves, total, min_units):
    """Exhaustively minimise total misses (ground truth for small cases)."""
    n = len(curves)
    best, best_misses = None, float("inf")
    for combo in itertools.product(range(min_units, total + 1), repeat=n):
        if sum(combo) != total:
            continue
        misses = sum(curves[p][combo[p]] for p in range(n))
        if misses < best_misses:
            best_misses = misses
            best = combo
    return best, best_misses


class TestLookahead:
    def test_greedy_convex_case(self):
        # Convex curves: lookahead == greedy == optimal.
        curves = [
            [100, 60, 30, 10, 5, 4, 3, 2, 1],
            [100, 95, 90, 85, 80, 75, 70, 65, 60],
        ]
        alloc = lookahead_allocate(curves, total_units=8, min_units=1)
        assert sum(alloc) == 8
        _, best = brute_force_best(curves, 8, 1)
        got = sum(curves[p][alloc[p]] for p in range(2))
        assert got == best

    def test_sees_past_plateaus(self):
        """The defining Lookahead property: a cliff behind a plateau
        (cache-fitting app) must still be found."""
        flat_then_cliff = [100, 100, 100, 100, 100, 0, 0, 0, 0]
        gentle = [100, 98, 96, 94, 92, 90, 88, 86, 84]
        alloc = lookahead_allocate([flat_then_cliff, gentle], 8, min_units=1)
        assert alloc[0] >= 5  # reached the cliff

    def test_matches_brute_force_on_small_cases(self):
        cases = [
            [[50, 30, 20, 15, 12, 10], [50, 45, 20, 10, 8, 7]],
            [[90, 90, 10, 10, 10, 10], [80, 40, 30, 25, 22, 20]],
            [[100, 0, 0, 0, 0, 0], [100, 99, 98, 0, 0, 0]],
        ]
        for curves in cases:
            alloc = lookahead_allocate(curves, 5, min_units=1)
            _, best_misses = brute_force_best(curves, 5, 1)
            got = sum(curves[p][alloc[p]] for p in range(2))
            # Lookahead is a strong heuristic; allow small slack.
            assert got <= best_misses * 1.1 + 1

    def test_all_units_always_assigned(self):
        flat = [[10.0] * 9, [10.0] * 9]
        alloc = lookahead_allocate(flat, 8, min_units=1)
        assert sum(alloc) == 8

    def test_min_units_respected(self):
        curves = [[100, 0, 0, 0, 0], [100, 100, 100, 100, 100]]
        alloc = lookahead_allocate(curves, 4, min_units=1)
        assert min(alloc) >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            lookahead_allocate([[1, 2]], total_units=4, min_units=0)
        with pytest.raises(ValueError):
            lookahead_allocate([[1] * 3, [1] * 3], 2, min_units=2)

    def test_empty(self):
        assert lookahead_allocate([], 4) == []


def _random_curve(rng, points, kind):
    """A miss curve of ``points`` entries, of one adversarial shape."""
    if kind == "decreasing":
        misses, curve = rng.uniform(100.0, 1e6), []
        for _ in range(points):
            curve.append(misses)
            misses -= rng.expovariate(1.0) * misses / points
        return curve
    if kind == "noisy":  # non-monotone: negative marginal gains too
        return [rng.uniform(0.0, 1000.0) for _ in range(points)]
    if kind == "cliffs":  # plateaus broken by non-convex drops
        misses, curve = 1000.0, []
        for _ in range(points):
            curve.append(misses)
            if rng.random() < 0.15:
                misses = max(0.0, misses - rng.choice((50.0, 200.0, 600.0)))
        return curve
    if kind == "quantised":  # few distinct values: rate ties, exact
        # (integers) or decided by rounding (tenths)
        step = rng.choice((1.0, 4.0, 0.1))
        top = rng.randrange(4, 40)
        return sorted(
            (rng.randrange(top) * step for _ in range(points)), reverse=True
        )
    if kind == "linear":  # every window has the same rate
        slope = float(rng.randrange(1, 8))
        return [slope * (points - a) for a in range(points)]
    raise ValueError(kind)


_KINDS = ("decreasing", "noisy", "cliffs", "quantised", "linear")


class TestLookaheadNumpyParity:
    """The vectorized window scan and the scalar loop allocate alike.

    ``argmax`` takes the first maximum and the scalar loop updates on a
    strict ``>``, so exact ties -- inside one curve's windows and
    across partitions -- must resolve to the same window on both paths.
    """

    @pytest.fixture(autouse=True)
    def _needs_numpy(self):
        if lazy.load_numpy() is None:
            pytest.skip("numpy not installed")

    @staticmethod
    def both(monkeypatch, curves, total, min_units=0):
        vectorized = lookahead_allocate(curves, total, min_units)
        with monkeypatch.context() as m:
            m.setattr(lazy, "load_numpy", lambda: None)
            scalar = lookahead_allocate(curves, total, min_units)
        return vectorized, scalar

    ADVERSARIAL = [
        # Equal rates for every window size: k = 1 must win on both.
        [[12.0, 9.0, 6.0, 3.0, 0.0], [12.0, 9.0, 6.0, 3.0, 0.0]],
        # A tie between a short window and one past a plateau.
        [[8.0, 8.0, 4.0, 4.0, 0.0], [8.0, 6.0, 4.0, 2.0, 0.0]],
        # Plateau, then a cliff; a flat curve that gains nothing.
        [[100.0] * 5 + [0.0] * 4, [50.0] * 9],
        # Every curve flat: the round-robin remainder.
        [[7.0] * 9, [7.0] * 9, [7.0] * 9],
        # Growing misses: no window has a positive rate.
        [[1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 0.0, 1.0, 1.0, 2.0]],
        # Identical non-convex curves: ties across partitions.
        [[90.0, 90.0, 10.0, 10.0, 10.0, 10.0]] * 3,
        # Tenths: windows whose rates tie or part only by rounding, so
        # taking the last maximal window instead of the first changes
        # the allocation.
        [
            [1.1, 1.1, 1.1, 0.7, 0.3, 0.1, 0.1],
            [1.1, 1.0, 1.0, 0.7, 0.7, 0.2, 0.1],
            [1.0, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0],
        ],
        [[1.0, 0.3, 0.1, 0.1, 0.1, 0.1, 0.0], [1.1, 1.1, 1.0, 0.7, 0.3, 0.1, 0.0]],
        [[0.7, 0.7, 0.3, 0.3, 0.2, 0.2, 0.1], [1.1, 1.0, 1.0, 0.7, 0.3, 0.1, 0.0]],
        # Rates that a reciprocal multiply, ``x * (1 / k)``, rounds
        # differently from the true division ``x / k``.
        [[3.1, 3.0, 2.6, 2.2, 1.8], [1.9, 0.9, 0.7, 0.4, 0.0]],
    ]

    @pytest.mark.parametrize("case", range(len(ADVERSARIAL)))
    @pytest.mark.parametrize("min_units", [0, 1])
    def test_adversarial_curves(self, monkeypatch, case, min_units):
        curves = self.ADVERSARIAL[case]
        total = len(curves[0]) - 1
        if min_units * len(curves) > total:
            pytest.skip("min_units does not fit")
        vectorized, scalar = self.both(monkeypatch, curves, total, min_units)
        assert vectorized == scalar
        assert sum(vectorized) == total

    @pytest.mark.parametrize("kind", _KINDS + ("mixed",))
    def test_seeded_random_curves(self, monkeypatch, kind):
        rng = random.Random(f"ucp-parity-{kind}")
        for _ in range(100):
            n = rng.randint(1, 6)
            total = rng.choice((3, 4, 5, 6, 8, 16, 64, 256))
            min_units = rng.randint(0, total // n)
            curves = [
                _random_curve(
                    rng, total + 1, rng.choice(_KINDS) if kind == "mixed" else kind
                )
                for _ in range(n)
            ]
            vectorized, scalar = self.both(monkeypatch, curves, total, min_units)
            assert vectorized == scalar, (kind, n, total, min_units)


class TestUCPPolicy:
    def make_policy(self, granularity=None, total=8):
        monitors = [UMonitor(8, 1, 1, seed=i) for i in range(2)]
        return UCPPolicy(monitors, total_units=total, min_units=1, granularity=granularity)

    def test_allocates_to_high_utility_partition(self):
        policy = self.make_policy()
        # Partition 0 reuses 6 lines heavily; partition 1 never reuses.
        for rep in range(50):
            for a in range(6):
                policy.observe(0, a)
        for n in range(300):
            policy.observe(1, 1000 + n)
        alloc = policy.allocate()
        assert sum(alloc) == 8
        assert alloc[0] > alloc[1]

    def test_line_granularity_scaling(self):
        policy = self.make_policy(granularity=16, total=1024)
        for rep in range(50):
            for a in range(6):
                policy.observe(0, a)
        for n in range(300):
            policy.observe(1, 1000 + n)
        alloc = policy.allocate()
        assert sum(alloc) <= 1024
        assert alloc[0] > alloc[1]
        # Units are lines, not points.
        assert max(alloc) > 64

    def test_monitors_decay_after_allocate(self):
        policy = self.make_policy()
        for _ in range(10):
            policy.observe(0, 1)
        before = policy.monitors[0].accesses
        policy.allocate()
        assert policy.monitors[0].accesses == before // 2
