"""Vantage: the paper's contribution (controller, config, variants)."""

from repro.core.analytical import AnalyticalVantageCache
from repro.core.cache import UNMANAGED, VantageCache
from repro.core.config import VantageConfig
from repro.core.feedback import build_threshold_table, lookup_threshold
from repro.core.rrip_variant import VantageDRRIPCache

# Imported last, for its side effects: registers the batch access
# kernels for the Vantage controllers.
from repro.core import fused  # noqa: E402,F401

__all__ = [
    "AnalyticalVantageCache",
    "UNMANAGED",
    "VantageCache",
    "VantageConfig",
    "VantageDRRIPCache",
    "build_threshold_table",
    "lookup_threshold",
]
