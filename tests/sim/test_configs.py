"""Tests for the Table 2 system configurations."""

import pytest

from repro.sim import large_system, small_system


class TestTable2:
    def test_large_system_matches_table2(self):
        cfg = large_system()
        assert cfg.num_cores == 32
        assert cfg.l2_bytes == 8 * 1024 * 1024
        assert cfg.l2_banks == 4
        assert cfg.l1_bytes == 32 * 1024
        assert cfg.l1_ways == 4
        assert cfg.l1_to_l2_latency == 4
        assert cfg.l2_bank_latency == 8
        assert cfg.mem_latency == 200
        assert cfg.mem_bandwidth_gbs == 32.0
        assert cfg.mem_controllers == 4
        assert cfg.freq_ghz == 2.0
        assert cfg.epoch_cycles == 5_000_000

    def test_small_system(self):
        cfg = small_system()
        assert cfg.num_cores == 4
        assert cfg.l2_bytes == 2 * 1024 * 1024
        assert cfg.l2_banks == 1
        assert cfg.mem_bandwidth_gbs == 4.0

    def test_derived_quantities(self):
        cfg = large_system()
        assert cfg.l2_lines == 131_072
        assert cfg.l2_hit_latency == 12
        assert cfg.mem_bytes_per_cycle == pytest.approx(16.0)

    def test_overrides(self):
        cfg = small_system(epoch_cycles=100_000)
        assert cfg.epoch_cycles == 100_000
        assert cfg.num_cores == 4


class TestValidation:
    @pytest.mark.parametrize(
        "field", ["num_cores", "l2_bytes", "epoch_cycles", "mem_controllers"]
    )
    @pytest.mark.parametrize("value", [0, -1])
    def test_non_positive_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"SystemConfig.{field} must be positive"):
            small_system(**{field: value})

    def test_zero_epoch_no_longer_hangs(self):
        """``epoch_cycles=0`` used to spin forever in the event loop's
        ``next_epoch += epoch_cycles``; now it never builds."""
        with pytest.raises(ValueError, match="epoch_cycles"):
            large_system(epoch_cycles=0)

    def test_env_epoch_zero_is_rejected(self, monkeypatch):
        from repro.harness.env import epoch_cycles

        monkeypatch.setenv("REPRO_EPOCH_CYCLES", "0")
        with pytest.raises(ValueError, match="epoch_cycles"):
            small_system(epoch_cycles=epoch_cycles())
