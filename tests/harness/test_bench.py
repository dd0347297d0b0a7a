"""Tests for the pinned micro-benchmark harness.

The timing numbers themselves are host-dependent and not asserted;
what is pinned here is the bench's *coverage*: the run must cross at
least one repartitioning epoch (so the allocation path is inside the
measured kernel), report the peak-memory footprint of both kernel
paths, and hold the fast path == object path identity.  The object
path (fused kernels removed, as under ``REPRO_FUSED=0``) is the
reference every ratio is taken against.
"""

from repro.harness.bench import (
    BENCH_EPOCH_CYCLES,
    RATIO,
    SMOKE_INSTRUCTIONS,
    _run_once,
    bench_kernel,
    compare_reports,
    update_history,
)


class TestEpochCoverage:
    def test_smoke_run_crosses_a_repartitioning_epoch(self):
        _, result, _, policy = _run_once(
            "vantage-z4/52", True, SMOKE_INSTRUCTIONS, False
        )
        # Even the smoke run must outlast BENCH_EPOCH_CYCLES, or the
        # bench silently stops covering UMON read-out + Lookahead +
        # set_allocations.
        assert result.total_cycles > BENCH_EPOCH_CYCLES
        assert policy is not None
        assert policy.last_allocation, (
            "pinned bench crossed no epoch: last_allocation is empty"
        )
        assert all(units >= 0 for units in policy.last_allocation)

    def test_reference_run_repartitions_identically(self):
        _, opt_result, opt_tree, opt_policy = _run_once(
            "vantage-z4/52", True, SMOKE_INSTRUCTIONS, False
        )
        _, ref_result, ref_tree, ref_policy = _run_once(
            "vantage-z4/52", True, SMOKE_INSTRUCTIONS, True
        )
        assert opt_tree.snapshot()["sim"]["epochs"] > 0
        assert opt_result == ref_result
        assert opt_policy.last_allocation == ref_policy.last_allocation
        assert opt_tree.snapshot() == ref_tree.snapshot()


class TestBenchKernelReport:
    def test_row_reports_identity_memory_and_allocation(self):
        row = bench_kernel("vantage-z4/52", True, SMOKE_INSTRUCTIONS, 1)
        assert row["identical"] is True
        assert row["partitioned"] is True
        assert row["last_allocation"], "headline row must record an allocation"
        # tracemalloc peaks for both sides, in KiB.
        assert row["optimized_peak_kib"] > 0
        assert row["object_peak_kib"] > 0
        assert row["object_s"] > 0 and row[RATIO] > 0

    def test_unpartitioned_row_has_no_allocation(self):
        row = bench_kernel("lru-sa16", False, 4_000, 1)
        assert row["identical"] is True
        assert row["partitioned"] is False
        assert row["last_allocation"] is None


def _report(**overrides):
    """A minimal bench report with healthy speedups."""
    report = {
        "smoke": False,
        "kernels": [
            {"scheme": "vantage-z4/52", RATIO: 9.0},
            {"scheme": "lru-sa16", RATIO: 12.0},
        ],
    }
    report.update(overrides)
    return report


class TestCompareReports:
    def test_no_regressions_when_equal(self):
        assert compare_reports(_report(), _report()) == []

    def test_within_tolerance_passes(self):
        current = _report(
            kernels=[{"scheme": "vantage-z4/52", RATIO: 8.2}]
        )
        # 8.2 > 9.0 * 0.9 -- inside the 10% band.
        assert compare_reports(current, _report()) == []

    def test_kernel_regression_detected(self):
        current = _report(
            kernels=[{"scheme": "vantage-z4/52", RATIO: 7.0}]
        )
        regressions = compare_reports(current, _report())
        assert len(regressions) == 1
        assert "vantage-z4/52" in regressions[0]

    def test_retired_reference_ratios_are_skipped(self):
        """Baselines from before the object-path rename carry only the
        retired reference-lane ``speedup``: nothing to compare against."""
        retired = {
            "smoke": False,
            "kernels": [{"scheme": "vantage-z4/52", "speedup": 50.0}],
            "batch": {"scheme": "vantage-z4/52", "speedup": 9.0},
        }
        assert compare_reports(_report(), retired) == []

    def test_smoke_baseline_is_skipped(self):
        current = _report(
            kernels=[{"scheme": "vantage-z4/52", RATIO: 0.1}]
        )
        assert compare_reports(current, _report(smoke=True)) == []

    def test_unknown_kernels_are_ignored(self):
        current = _report(
            kernels=[{"scheme": "brand-new-scheme", RATIO: 0.1}]
        )
        assert compare_reports(current, _report()) == []

    def test_tolerance_is_configurable(self):
        current = _report(
            kernels=[{"scheme": "vantage-z4/52", RATIO: 8.2}]
        )
        assert compare_reports(current, _report(), tolerance=0.05)


class TestUpdateHistory:
    def _history(self, tmp_path):
        return tmp_path / "history.json"

    def _load(self, path):
        import json

        return json.loads(path.read_text())

    def test_first_entry_has_no_baseline(self, tmp_path):
        path = self._history(tmp_path)
        regressions, compared = update_history(_report(), path)
        assert (regressions, compared) == ([], 0)
        assert len(self._load(path)) == 1

    def test_gates_against_best_of_window(self, tmp_path):
        path = self._history(tmp_path)
        # Two prior runs: one fast, one slow.  The gate must use the
        # fast one, so a middling current run regresses.
        update_history(_report(), path)
        update_history(
            _report(kernels=[{"scheme": "vantage-z4/52", RATIO: 4.0}]),
            path,
        )
        current = _report(
            kernels=[{"scheme": "vantage-z4/52", RATIO: 7.0}]
        )
        regressions, compared = update_history(current, path)
        assert compared == 2
        assert len(regressions) == 1
        assert "vantage-z4/52" in regressions[0]
        # Appended despite the regression.
        assert len(self._load(path)) == 3

    def test_window_limits_the_baseline(self, tmp_path):
        path = self._history(tmp_path)
        update_history(_report(), path)  # the only fast run
        slow = _report(kernels=[{"scheme": "vantage-z4/52", RATIO: 4.0}])
        for _ in range(3):
            update_history(slow, path)
        # window=3 excludes the fast first entry: 4.0 passes.
        regressions, compared = update_history(dict(slow), path, window=3)
        assert (regressions, compared) == ([], 3)

    def test_smoke_runs_recorded_but_not_gated(self, tmp_path):
        path = self._history(tmp_path)
        update_history(_report(), path)
        smoke = _report(
            smoke=True,
            kernels=[{"scheme": "vantage-z4/52", RATIO: 0.1}],
        )
        # A smoke report is never compared...
        assert update_history(smoke, path) == ([], 0)
        # ...and never becomes part of anyone's baseline.
        regressions, compared = update_history(_report(), path)
        assert (regressions, compared) == ([], 1)
        assert [e["smoke"] for e in self._load(path)] == [False, True, False]

    def test_entries_are_slimmed(self, tmp_path):
        path = self._history(tmp_path)
        report = _report()
        report["kernels"][0]["identical"] = True
        report["kernels"][0]["optimized_peak_kib"] = 123.0
        update_history(report, path)
        entry = self._load(path)[0]
        row = entry["kernels"][0]
        assert row == {"scheme": "vantage-z4/52", RATIO: 9.0}
        assert "unix_time" in entry

    def test_retired_history_entries_do_not_gate(self, tmp_path):
        """A history whose rows hold only the retired reference-lane
        ``speedup`` (and ``batch`` sections) gates nothing, however
        large those old ratios were."""
        import json

        path = self._history(tmp_path)
        retired = {
            "tag": "old",
            "smoke": False,
            "kernels": [{"scheme": "vantage-z4/52", "speedup": 50.0}],
            "batch": {"scheme": "vantage-z4/52", "speedup": 9.0},
        }
        path.write_text(json.dumps([retired]))
        regressions, compared = update_history(_report(), path)
        assert (regressions, compared) == ([], 1)
        # The next run gates against the new ratio only.
        slow = _report(kernels=[{"scheme": "vantage-z4/52", RATIO: 4.0}])
        regressions, compared = update_history(slow, path)
        assert compared == 2 and len(regressions) == 1

    def test_rejects_non_list_history(self, tmp_path):
        import pytest

        path = self._history(tmp_path)
        path.write_text('{"tag": "local"}')
        with pytest.raises(ValueError, match="bench history"):
            update_history(_report(), path)
