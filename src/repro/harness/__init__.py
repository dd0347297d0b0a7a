"""Experiment harness: scheme factory, mix runners, scaling, tables."""

from repro.harness.classify import classify_app, classify_curve, mpki_curve
from repro.harness.env import (
    class_stride,
    epoch_cycles,
    instructions_per_app,
    mixes_per_class,
)
from repro.harness.parallel import SimJob, SimOutcome, default_workers, run_jobs
from repro.harness.runner import MixRun, build_policy, relative_throughputs, run_mix
from repro.harness.schemes import build_array, build_cache, default_vantage_config
from repro.harness.tables import (
    distribution_row,
    format_curve_table,
    format_distribution_table,
    save_results,
)

__all__ = [
    "MixRun",
    "SimJob",
    "SimOutcome",
    "build_array",
    "build_cache",
    "build_policy",
    "class_stride",
    "classify_app",
    "classify_curve",
    "default_vantage_config",
    "default_workers",
    "distribution_row",
    "epoch_cycles",
    "format_curve_table",
    "format_distribution_table",
    "instructions_per_app",
    "mixes_per_class",
    "mpki_curve",
    "relative_throughputs",
    "run_jobs",
    "run_mix",
    "save_results",
]
