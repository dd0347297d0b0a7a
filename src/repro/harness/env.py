"""Scaling knobs for the benchmark suite.

Pure-Python simulation cannot run the paper's 350 mixes x 200 M
instructions in a benchmark session; the outcome knobs of
:mod:`repro.options` (``REPRO_INSTRUCTIONS``,
``REPRO_MIXES_PER_CLASS``, ``REPRO_CLASS_STRIDE``,
``REPRO_EPOCH_CYCLES``) pick the default scale and let users crank any
experiment back up.  Each helper returns the knob, or ``default`` when
it is unset.
"""

from __future__ import annotations

from repro import options


def _scale(name: str, default: int) -> int:
    value = options.get(name)
    return default if value is None else value


def instructions_per_app(default: int = 1_200_000) -> int:
    return _scale("REPRO_INSTRUCTIONS", default)


def mixes_per_class(default: int = 1) -> int:
    return _scale("REPRO_MIXES_PER_CLASS", default)


def class_stride(default: int = 1) -> int:
    return _scale("REPRO_CLASS_STRIDE", default)


def epoch_cycles(default: int = 250_000) -> int:
    return _scale("REPRO_EPOCH_CYCLES", default)
