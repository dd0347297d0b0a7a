"""Tests for the mix runner, integer knobs, and table formatting."""

import json

import pytest

from repro import options
from repro.harness import (
    build_cache,
    build_policy,
    distribution_row,
    format_curve_table,
    format_distribution_table,
    instructions_per_app,
    run_mix,
    save_results,
)
from repro.sim import SystemConfig
from repro.workloads import make_mix


def tiny_4core(**overrides):
    params = dict(
        num_cores=4,
        l2_bytes=256 * 64,
        l2_banks=1,
        mem_bandwidth_gbs=32.0,
        epoch_cycles=20_000,
    )
    params.update(overrides)
    return SystemConfig(**params)


class TestRunMix:
    def test_baseline_runs_without_policy(self):
        mix = make_mix("sftn", 1)
        run = run_mix(mix, "lru-sa16", tiny_4core(), instructions=20_000)
        assert run.system.policy is None
        assert run.result.throughput > 0

    def test_partitioned_scheme_gets_ucp(self):
        mix = make_mix("sftn", 1)
        run = run_mix(mix, "vantage-z4/16", tiny_4core(), instructions=20_000)
        assert run.system.policy is not None
        # UCP installed non-default targets at some point.
        assert sum(run.cache.target) <= run.cache.allocation_total

    def test_size_series_capture(self):
        mix = make_mix("ttnn", 1)
        run = run_mix(
            mix,
            "vantage-z4/16",
            tiny_4core(),
            instructions=20_000,
            size_sample_cycles=10_000,
        )
        assert run.size_series is not None
        assert len(run.size_series.times) > 2

    def test_core_count_mismatch_rejected(self):
        mix = make_mix("sftn", 1, apps_per_slot=2)  # 8 apps
        with pytest.raises(ValueError):
            run_mix(mix, "lru-sa16", tiny_4core(), instructions=1000)


class TestBuildPolicy:
    def test_way_scheme_gets_way_units(self):
        config = tiny_4core()
        cache = build_cache("waypart-sa16", config.l2_lines, 4)
        policy = build_policy(cache, config)
        assert policy.total_units == 16
        assert policy.granularity is None

    def test_vantage_gets_line_granularity(self):
        config = tiny_4core()
        cache = build_cache("vantage-z4/52", config.l2_lines, 4)
        policy = build_policy(cache, config)
        assert policy.granularity == 256
        assert policy.total_units == cache.allocation_total

    @pytest.mark.parametrize(
        "scheme", ["pipp-sa64", "waypart-sa64", "pipp-sa32", "waypart-sa32"]
    )
    def test_way_scheme_wider_than_umon_repartitions(self, scheme):
        """A way-partitioned cache wider than the 16-way UMONs gets
        each miss curve interpolated to one point per way, so Lookahead
        can allocate every way at each epoch instead of rejecting the
        17-point curves."""
        config = tiny_4core(epoch_cycles=10_000)
        run = run_mix(make_mix("sftn", 1), scheme, config, instructions=20_000)
        ways = run.cache.allocation_total
        assert run.system.policy.granularity == ways
        assert run.system.epochs > 0
        allocation = run.system.policy.last_allocation
        assert sum(allocation) == ways and min(allocation) >= 1


class TestEnv:
    """An integer knob of :mod:`repro.options` (the scale helpers)."""

    def test_env_int_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_INSTRUCTIONS", raising=False)
        assert options.get("REPRO_INSTRUCTIONS") is None
        assert instructions_per_app(7) == 7

    def test_env_int_parse(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "123")
        assert options.get("REPRO_INSTRUCTIONS") == 123
        assert instructions_per_app(7) == 123

    def test_env_int_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "abc")
        with pytest.raises(ValueError, match="REPRO_INSTRUCTIONS"):
            instructions_per_app(7)


class TestTables:
    def test_distribution_row(self):
        row = distribution_row("vantage", [1.1, 0.9, 1.3])
        assert row["scheme"] == "vantage"
        assert row["improved_frac"] == pytest.approx(2 / 3)
        assert row["degraded_frac"] == pytest.approx(1 / 3)
        assert row["best"] == 1.3
        assert row["worst"] == 0.9

    def test_format_distribution_table(self):
        rows = [distribution_row("a", [1.0, 1.2]), distribution_row("b", [0.8])]
        text = format_distribution_table(rows, "Figure X")
        assert "Figure X" in text
        assert "a" in text and "b" in text

    def test_format_curve_table(self):
        text = format_curve_table(
            "Fig 5", [0.1, 0.2], {"R=16": [1.0, 2.0], "R=52": [3.0, 4.0]}, x_label="Amax"
        )
        assert "Fig 5" in text
        assert "R=16" in text
        assert "0.2" in text

    def test_save_results(self, tmp_path, monkeypatch):
        import repro.harness.tables as tables

        monkeypatch.setattr(tables, "RESULTS_DIR", tmp_path)
        path = tables.save_results("unit", {"x": 1})
        assert json.loads(path.read_text()) == {"x": 1}
