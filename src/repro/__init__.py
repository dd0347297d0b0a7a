"""Reproduction of *Vantage: Scalable and Efficient Fine-Grain Cache
Partitioning* (Sanchez & Kozyrakis, ISCA 2011).

The package implements the full evaluation stack of the paper in pure
Python:

- ``repro.arrays`` -- cache arrays (set-associative, skew-associative,
  zcache, idealised random-candidates).
- ``repro.replacement`` -- set-order-free replacement policies
  (coarse-timestamp LRU, the RRIP family, LFU, random).
- ``repro.partitioning`` -- baseline and rival partitioning schemes
  (unpartitioned, way-partitioning, PIPP).
- ``repro.core`` -- the Vantage controller itself (the paper's
  contribution), in practical and analytical variants.
- ``repro.allocation`` -- allocation policies (UCP with UMON-DSS and the
  Lookahead algorithm, static policies).
- ``repro.sim`` -- a trace-driven CMP substrate (in-order cores, private
  L1s, shared L2, memory controller).
- ``repro.workloads`` -- synthetic SPEC-CPU2006-like applications and
  multiprogrammed mix construction.
- ``repro.analysis`` -- the paper's analytical models (Equations 1-9)
  and measurement helpers.
- ``repro.harness`` -- experiment runners used by the benchmarks.

The most common entry points are re-exported here; see README.md for a
quickstart.
"""

from repro.lazy import reexport

# Re-exported lazily (PEP 562): ``import repro.options`` or a client
# import must not load the simulator.
__getattr__, __dir__, __all__ = reexport(
    __name__,
    {
        ".arrays": (
            "RandomCandidatesArray",
            "SetAssociativeArray",
            "SkewAssociativeArray",
            "ZCacheArray",
        ),
        ".core": ("VantageCache", "VantageConfig"),
        ".partitioning": ("BaselineCache", "PIPPCache", "WayPartitionedCache"),
    },
)

__version__ = "1.0.0"
