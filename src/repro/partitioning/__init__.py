"""Baseline and rival partitioning schemes (Vantage lives in ``repro.core``)."""

from repro.partitioning.base_cache import BaselineCache, CacheStats, PartitionedCache
from repro.partitioning.capabilities import (
    TABLE1_COLUMNS,
    TABLE1_ROWS,
    SchemeCapabilities,
    format_table1,
)
from repro.partitioning.pipp import PIPPCache
from repro.partitioning.selective import SelectiveAllocationCache
from repro.partitioning.way_partitioning import WayPartitionedCache

# Imported last, for its side effects: registers the fused access
# kernels for the schemes defined above.
import repro.partitioning.fused  # noqa: E402,F401

__all__ = [
    "BaselineCache",
    "CacheStats",
    "PIPPCache",
    "PartitionedCache",
    "SchemeCapabilities",
    "SelectiveAllocationCache",
    "TABLE1_COLUMNS",
    "TABLE1_ROWS",
    "WayPartitionedCache",
    "format_table1",
]
