"""repro.telemetry: the hierarchical statistics spine.

Usage pattern (every layer follows it):

1. components keep plain counters (ints / lists) on themselves, as
   they always did -- hot paths never call into this package;
2. each component implements ``register_stats(group)``, adding
   pull-based leaves that read those counters;
3. the harness assembles one tree per simulation with
   :func:`system_tree` and snapshots it after the run.

Collection of the *optional* hot-loop counters (array walk lengths,
per-core stall cycles) is gated by :func:`enabled` -- a process-wide
flag (default on, toggled by :func:`set_enabled`) read once at object
construction, so disabling costs nothing per event.
``tests/telemetry/test_overhead.py`` checks that this on/off switch
leaves results unchanged and that collection stays within its 5 %
budget on a steady-state Vantage kernel.
"""

from __future__ import annotations

from repro.telemetry.monitor import SampledMonitor
from repro.telemetry.tree import Distribution, IntervalSeries, Stat, StatGroup

_enabled = True


def enabled() -> bool:
    """Whether optional hot-loop counters should be collected."""
    return _enabled


def set_enabled(on: bool) -> None:
    """Toggle collection for objects constructed from now on."""
    global _enabled
    _enabled = bool(on)


def system_tree(cache=None, system=None, policy=None) -> StatGroup:
    """Assemble the canonical stats tree for one simulation.

    Top-level groups (the stable schema roots):

    - ``cache``: the partitioned cache front-end (per-partition
      hits/misses/evictions plus scheme-specific registers);
    - ``array``: the backing array (walks, candidates, relocations);
    - ``sim``: the CMP system (stall cycles, L1 filtering, epochs);
    - ``policy``: the allocation policy and its monitors.
    """
    root = StatGroup("root", "statistics for one simulation")
    if cache is not None:
        cache.register_stats(root.group("cache", "partitioned cache front-end"))
        array = getattr(cache, "array", None)
        if array is not None and hasattr(array, "register_stats"):
            array.register_stats(root.group("array", "backing cache array"))
    if system is not None and hasattr(system, "register_stats"):
        system.register_stats(root.group("sim", "CMP system"))
    if policy is not None and hasattr(policy, "register_stats"):
        policy.register_stats(root.group("policy", "allocation policy"))
    return root


__all__ = [
    "Distribution",
    "IntervalSeries",
    "SampledMonitor",
    "Stat",
    "StatGroup",
    "enabled",
    "set_enabled",
    "system_tree",
]
