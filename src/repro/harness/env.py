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

Two more knobs change what a simulation computes, so they are read
only where a :class:`~repro.harness.parallel.SimJob` is built and
then travel inside the job (and its results-cache key):

- ``REPRO_FASTFWD``: ``1`` turns on analytical fast-forward
  (:mod:`repro.sim.fastfwd`); anything else keeps runs exact.
- ``REPRO_FASTFWD_TOL``: the fast-forward detector tolerance
  (default 0.02; ``0`` = detection-only).
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


def fastfwd_requested() -> bool:
    """``REPRO_FASTFWD``: whether new jobs fast-forward (off unless ``1``)."""
    return os.environ.get("REPRO_FASTFWD", "0") == "1"


def fastfwd_tolerance() -> float:
    """``REPRO_FASTFWD_TOL``, validated (a number >= 0)."""
    from repro.sim.fastfwd import DEFAULT_TOL

    raw = os.environ.get("REPRO_FASTFWD_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_FASTFWD_TOL must be a number, got {raw!r}"
        ) from None
    if not value >= 0:
        raise ValueError(f"REPRO_FASTFWD_TOL must be >= 0, got {raw!r}")
    return value


def require_bitwise(context: str) -> None:
    """Fail fast when ``REPRO_FASTFWD=1`` would undermine a run that
    must produce bitwise-exact output.

    Golden-stats snapshots and the parity suites pin exact simulation;
    fast-forward replays epoch tails through a model, so its counters
    are *accurate* but not *exact*.  Call this at the top of such runs
    so a stray environment override produces a clear error instead of
    a baffling diff.
    """
    if fastfwd_requested():
        raise RuntimeError(
            f"REPRO_FASTFWD=1 cannot be combined with {context}: "
            f"fast-forward replays converged epoch tails through the "
            f"analytical model, so output is not bitwise-exact. Unset "
            f"REPRO_FASTFWD (or set it to 0) for this run."
        )
