"""Experiment harness: scheme factory, mix runners, scaling, tables.

The names below are re-exported lazily (PEP 562): the daemon, the
gateway and the clients import :mod:`~repro.harness.parallel` for
``SimJob`` and never load the classifier, the runner or the tables.
"""

from repro.lazy import reexport

__getattr__, __dir__, __all__ = reexport(
    __name__,
    {
        ".classify": ("classify_app", "classify_curve", "mpki_curve"),
        ".env": (
            "class_stride",
            "epoch_cycles",
            "instructions_per_app",
            "mixes_per_class",
        ),
        ".parallel": ("SimJob", "SimOutcome", "default_workers", "run_jobs"),
        ".runner": ("MixRun", "build_policy", "relative_throughputs", "run_mix"),
        ".schemes": ("build_array", "build_cache", "default_vantage_config"),
        ".tables": (
            "distribution_row",
            "format_curve_table",
            "format_distribution_table",
            "save_results",
        ),
    },
)
