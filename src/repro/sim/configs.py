"""System configurations (Table 2 of the paper).

Latencies are in cycles of the 2 GHz clock; the memory bandwidth is
expressed in bytes per cycle so the queueing model needs no unit
conversions at run time.
"""

from __future__ import annotations

from dataclasses import dataclass

LINE_BYTES = 64


@dataclass(frozen=True)
class SystemConfig:
    """CMP parameters consumed by :class:`repro.sim.system.CMPSystem`."""

    num_cores: int
    l2_bytes: int
    l2_banks: int
    mem_bandwidth_gbs: float
    l1_bytes: int = 32 * 1024
    l1_ways: int = 4
    line_bytes: int = LINE_BYTES
    l1_latency: int = 1
    l1_to_l2_latency: int = 4
    l2_bank_latency: int = 8
    mem_latency: int = 200
    mem_controllers: int = 4
    freq_ghz: float = 2.0
    epoch_cycles: int = 5_000_000

    def __post_init__(self):
        # A non-positive epoch would never advance the event loop's
        # next-epoch deadline (the run would hang); the others size
        # lists and divide addresses.
        for name in ("num_cores", "l2_bytes", "epoch_cycles", "mem_controllers"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(
                    f"SystemConfig.{name} must be positive, got {value!r}"
                )

    @property
    def l2_lines(self) -> int:
        return self.l2_bytes // self.line_bytes

    @property
    def l2_hit_latency(self) -> int:
        return self.l1_to_l2_latency + self.l2_bank_latency

    @property
    def mem_bytes_per_cycle(self) -> float:
        return self.mem_bandwidth_gbs * 1e9 / (self.freq_ghz * 1e9)


def large_system(**overrides) -> SystemConfig:
    """The 32-core CMP of Table 2: 8 MB shared L2, 32 GB/s memory."""
    params = dict(
        num_cores=32,
        l2_bytes=8 * 1024 * 1024,
        l2_banks=4,
        mem_bandwidth_gbs=32.0,
    )
    params.update(overrides)
    return SystemConfig(**params)


def small_system(**overrides) -> SystemConfig:
    """The 4-core CMP: 2 MB single-bank L2, 4 GB/s memory."""
    params = dict(
        num_cores=4,
        l2_bytes=2 * 1024 * 1024,
        l2_banks=1,
        mem_bandwidth_gbs=4.0,
    )
    params.update(overrides)
    return SystemConfig(**params)
