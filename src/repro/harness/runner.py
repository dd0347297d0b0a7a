"""Mix runners: wire workloads, schemes, UCP and the CMP together.

``run_mix`` simulates one multiprogrammed mix on one scheme and
returns the :class:`~repro.sim.system.SystemResult`;
``relative_throughputs`` runs a scheme set against a baseline and
returns the normalised throughputs the paper's Figures 6, 7, 9, 10
and 11 plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import telemetry
from repro.allocation import (
    ReuseAwareUCPPolicy,
    ReuseUMonitor,
    UCPPolicy,
    UMonitor,
)
from repro.analysis.stats import SizeTimeSeries
from repro.harness.schemes import (
    build_cache,
    scheme_partitioned,
    scheme_reuse_aware,
)
from repro.sim import CMPSystem, SystemConfig, SystemResult
from repro.telemetry import StatGroup
from repro.workloads import Mix

#: UMON associativity per system scale (the paper configures UMONs
#: with the same way count way-partitioning and PIPP use).
UMON_WAYS_SMALL = 16
UMON_WAYS_LARGE = 64
VANTAGE_GRANULARITY = 256


def build_policy(
    cache, config: SystemConfig, seed: int = 0, scheme: str | None = None
) -> UCPPolicy:
    """A UCP policy matched to the cache's allocation unit.

    Reuse-aware schemes get :class:`ReuseAwareUCPPolicy` over
    :class:`ReuseUMonitor`\\ s sharing one hash seed (their sampled
    sets must coincide for the first-touch classification to see every
    partition's view of an address).
    """
    umon_ways = UMON_WAYS_SMALL if config.num_cores <= 8 else UMON_WAYS_LARGE
    model_sets = max(64, config.l2_lines // umon_ways)
    # Round down to a power of two for the set-index hash.
    model_sets = 1 << (model_sets.bit_length() - 1)
    reuse = scheme is not None and scheme_reuse_aware(scheme)
    if reuse:
        monitors = [
            ReuseUMonitor(umon_ways, model_sets, sampled_sets=64, seed=seed)
            for _part in range(config.num_cores)
        ]
        policy_cls = ReuseAwareUCPPolicy
    else:
        monitors = [
            UMonitor(
                umon_ways, model_sets, sampled_sets=64, seed=seed + 17 * part
            )
            for part in range(config.num_cores)
        ]
        policy_cls = UCPPolicy
    if cache.allocation_unit == "ways":
        # A cache with more ways than its UMONs (pipp-sa64 on the
        # 4-core system) gets each curve interpolated to one point per
        # way, as Vantage's are to 256 points; narrower caches keep
        # the raw way-granularity curves.
        ways = cache.allocation_total
        return policy_cls(
            monitors,
            total_units=ways,
            min_units=1,
            granularity=ways if ways > umon_ways else None,
        )
    return policy_cls(
        monitors,
        total_units=cache.allocation_total,
        min_units=1,
        granularity=VANTAGE_GRANULARITY,
    )


@dataclass
class MixRun:
    """Everything one simulation produced (for deeper inspection)."""

    result: SystemResult
    cache: object
    system: CMPSystem
    size_series: SizeTimeSeries | None = None
    telemetry: StatGroup | None = field(default=None, repr=False)

    def stats(self) -> dict:
        """Snapshot of the run's stats tree (empty dict if no tree)."""
        return self.telemetry.snapshot() if self.telemetry is not None else {}


def run_mix(
    mix: Mix,
    scheme: str,
    config: SystemConfig,
    instructions: int,
    seed: int = 0,
    partitioned: bool | None = None,
    size_sample_cycles: int | None = None,
    use_l1: bool = False,
    vantage_config=None,
) -> MixRun:
    """Simulate ``mix`` under ``scheme``.

    ``partitioned=None`` takes the scheme registry's ``partitioned``
    metadata: baseline policies run without UCP, partitioning schemes
    with it.
    ``vantage_config`` overrides the Vantage parameters derived from
    the scheme name (Figure 9's unmanaged-region sweep).
    """
    if mix.num_cores != config.num_cores:
        raise ValueError(
            f"mix {mix.name} has {mix.num_cores} apps but the system has "
            f"{config.num_cores} cores"
        )
    cache = build_cache(
        scheme,
        config.l2_lines,
        config.num_cores,
        seed=seed,
        vantage_config=vantage_config,
    )
    if partitioned is None:
        partitioned = scheme_partitioned(scheme)
    policy = (
        build_policy(cache, config, seed, scheme=scheme) if partitioned else None
    )
    series = None
    if size_sample_cycles is not None:
        series = SizeTimeSeries(config.num_cores)
    system = CMPSystem(
        cache,
        mix.trace_factories(seed),
        config,
        policy=policy,
        use_l1=use_l1,
        size_series=series,
        size_sample_cycles=size_sample_cycles,
    )
    tree = telemetry.system_tree(cache=cache, system=system, policy=policy)
    result = system.run(instructions)
    return MixRun(
        result=result,
        cache=cache,
        system=system,
        size_series=series,
        telemetry=tree,
    )


def relative_throughputs(
    mixes: list[Mix],
    schemes: list[str],
    baseline: str,
    config: SystemConfig,
    instructions: int,
    seed: int = 0,
    workers: int | None = None,
) -> dict[str, list[float]]:
    """Throughput of each scheme on each mix, normalised to the
    baseline scheme on the same mix (Fig 6a / Fig 7 data).

    All ``(mix, scheme)`` simulations -- baseline included -- are
    submitted as one parallel batch; job deduplication means a
    baseline that also appears in ``schemes`` is simulated once.
    Results are bitwise-identical to running every pair serially.
    """
    from repro.harness.parallel import SimJob, run_jobs

    columns = [baseline] + list(schemes)
    jobs = [
        SimJob(mix, scheme, config, instructions, seed)
        for mix in mixes
        for scheme in columns
    ]
    outcomes = run_jobs(jobs, workers=workers)
    width = len(columns)
    out: dict[str, list[float]] = {scheme: [] for scheme in schemes}
    for m, mix in enumerate(mixes):
        row = outcomes[m * width : (m + 1) * width]
        base = row[0].result.throughput
        for scheme, outcome in zip(schemes, row[1:]):
            thr = outcome.result.throughput
            out[scheme].append(thr / base if base else 0.0)
    return out
