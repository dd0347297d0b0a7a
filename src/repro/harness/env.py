"""Environment-variable scaling knobs for the benchmark suite.

Pure-Python simulation cannot run the paper's 350 mixes x 200 M
instructions in a benchmark session; these knobs pick the default
scale and let users crank any experiment back up:

- ``REPRO_INSTRUCTIONS``: instructions simulated per application
  (paper: 200 000 000).
- ``REPRO_MIXES_PER_CLASS``: mixes sampled per workload class
  (paper: 10, i.e. 350 mixes total).
- ``REPRO_CLASS_STRIDE``: subsample the 35 classes (1 = all).
- ``REPRO_EPOCH_CYCLES``: UCP repartitioning period (paper: 5 M).
"""

from __future__ import annotations

import os

PAPER_INSTRUCTIONS = 200_000_000
PAPER_MIXES_PER_CLASS = 10
PAPER_EPOCH_CYCLES = 5_000_000


def env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def instructions_per_app(default: int = 1_200_000) -> int:
    return env_int("REPRO_INSTRUCTIONS", default)


def mixes_per_class(default: int = 1) -> int:
    return env_int("REPRO_MIXES_PER_CLASS", default)


def class_stride(default: int = 1) -> int:
    return env_int("REPRO_CLASS_STRIDE", default)


def epoch_cycles(default: int = 250_000) -> int:
    return env_int("REPRO_EPOCH_CYCLES", default)
