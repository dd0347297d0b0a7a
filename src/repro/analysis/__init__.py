"""Analytical models (Equations 1-9) and measurement utilities.

The names below are re-exported lazily (PEP 562): the daemon and the
gateway need :mod:`~repro.analysis.sizing` (``VantageConfig``) and
:mod:`~repro.analysis.stats` (the Figure 8 size series an outcome
carries), not the models.
"""

from repro.lazy import reexport

__getattr__, __dir__, __all__ = reexport(
    __name__,
    {
        ".assoc": (
            "aperture_demotion_cdf",
            "associativity_cdf",
            "associativity_cdf_curve",
            "binomial_in_managed",
            "empirical_cdf",
            "equilibrium_aperture",
            "forced_demotion_cdf",
        ),
        ".metrics": (
            "fairness",
            "harmonic_mean_speedup",
            "throughput",
            "weighted_speedup",
        ),
        ".overheads": (
            "VantageOverheads",
            "partition_id_bits",
            "register_bits_per_partition",
            "vantage_overheads",
        ),
        ".sizing": (
            "aperture",
            "equilibrium_apertures",
            "minimum_stable_size",
            "required_unmanaged_fraction",
            "slack_outgrowth",
            "worst_case_borrowed",
            "worst_case_pev",
        ),
        ".stats": (
            "PriorityMonitor",
            "SizeTimeSeries",
            "attach_demotion_monitor",
            "attach_eviction_monitor",
            "fraction_above",
            "geo_mean",
        ),
    },
)
