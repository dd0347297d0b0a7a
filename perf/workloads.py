"""The benchmark's four workloads, built from a seed.

Each workload is a request stream of :class:`~repro.harness.SimJob`
values plus the front door that serves it.  The seed only enters the
jobs' own ``seed`` field (trace streams and hash seeds) and, for the
service streams, the placement of duplicate requests; the mixes are
the fixed ones the paper's Figures 6 and 7 use here, so every seed
regenerates the same figure on different traces.

Why each workload exists is recorded in ``perf/README.md`` and in
``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass

from repro.harness import SimJob
from repro.sim import large_system, small_system
from repro.workloads import make_mix

#: The seven representative classes ``benchmarks/conftest.py`` uses
#: for the default Figure 6a and Figure 7 suites.
FIG_CLASSES = ("sftn", "ssft", "fftn", "ttnn", "sfff", "ffnn", "sstt")
FIG6_SCHEMES = ("lru-sa16", "vantage-z4/52", "waypart-sa16", "pipp-sa16")
FIG7_SCHEMES = ("lru-sa64", "vantage-z4/52", "waypart-sa64", "pipp-sa64")
SERVICE_CLASSES = FIG_CLASSES + ("stnn",)
SERVICE_SCHEMES = ("lru-sa16", "vantage-z4/52", "waypart-sa16")
EPOCH_CYCLES = 250_000

NAMES = ("fig6-sweep", "fig7-32core", "service-burst", "gateway-burst")

#: At 600k instructions ``ffnn1``'s Vantage job evicted no managed
#: line on any of seeds 0-19: it never leaves cold fill.
FIG6_NEVER_FILLS = frozenset({"ffnn1"})


@dataclass
class Workload:
    name: str
    #: The request stream, in submission order (duplicates included).
    jobs: list
    #: ``local`` (``run_jobs``), ``daemon`` or ``gateway``.
    front: str
    #: Simulation processes behind the front door.
    workers: int
    #: Mixes whose vantage-z4/52 job never leaves cold fill at this
    #: size; the steady-state guard (``perf/run.py``) skips them.
    steady_exempt: frozenset = frozenset()


def _smoke_small():
    # A 64 KB L2 fills within 20k instructions, so smoke jobs leave
    # cold fill and the steady-state guard has something to check.
    return small_system(l2_bytes=64 * 1024, epoch_cycles=20_000)


def _service_stream(seed: int, classes, mixes: int, instructions: int, config,
                    inflight: int, late: int) -> list:
    """Unique jobs plus duplicates: ``inflight`` of them right after
    their original (two closed-loop clients take consecutive requests,
    so they coalesce while the original runs) and ``late`` of them in
    the last quarter of the stream, after their original (from the
    first half) has finished, so the results cache serves them."""
    unique = [
        SimJob(make_mix(cls, index), scheme, config, instructions, seed)
        for cls in classes
        for index in range(1, mixes + 1)
        for scheme in SERVICE_SCHEMES
    ]
    rng = random.Random(seed)
    picks = rng.sample(range(len(unique)), inflight)
    early = [i for i in range(len(unique) // 2) if i not in picks]
    late_picks = rng.sample(early, late)
    stream = []
    for i, job in enumerate(unique):
        stream.append(job)
        if i in picks:
            stream.append(job)
    tail_start = len(stream) - len(stream) // 4
    for i in late_picks:
        stream.insert(rng.randint(tail_start, len(stream)), unique[i])
    return stream


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The named workload for ``seed`` (``smoke`` shrinks every
    workload to a few jobs of at most 20k instructions)."""
    if name == "fig6-sweep":
        if smoke:
            config, instructions, classes = _smoke_small(), 20_000, FIG_CLASSES[:2]
        else:
            config = small_system(epoch_cycles=EPOCH_CYCLES)
            instructions, classes = 600_000, FIG_CLASSES
        jobs = [
            SimJob(make_mix(cls, 1), scheme, config, instructions, seed)
            for cls in classes
            for scheme in FIG6_SCHEMES
        ]
        return Workload(name, jobs, "local", 2, frozenset() if smoke else FIG6_NEVER_FILLS)
    if name == "fig7-32core":
        if smoke:
            config = large_system(l2_bytes=512 * 1024, epoch_cycles=20_000)
            instructions, schemes = 20_000, FIG7_SCHEMES[:2]
        else:
            config = large_system(epoch_cycles=EPOCH_CYCLES)
            instructions, schemes = 150_000, FIG7_SCHEMES
        mix = make_mix("sftn", 1, apps_per_slot=8)
        jobs = [SimJob(mix, scheme, config, instructions, seed) for scheme in schemes]
        return Workload(name, jobs, "local", 1)
    if name in ("service-burst", "gateway-burst"):
        front = "daemon" if name == "service-burst" else "gateway"
        if smoke:
            jobs = _service_stream(seed, SERVICE_CLASSES[:2], 2, 20_000,
                                   _smoke_small(), 2, 2)
            return Workload(name, jobs, front, 2)
        # Mixes 1-8 make the cold pass long enough (10-20 s) to average
        # over the host's speed swings.
        jobs = _service_stream(seed, SERVICE_CLASSES, 8, 30_000,
                               small_system(epoch_cycles=EPOCH_CYCLES), 24, 24)
        # No 30k-instruction job fills the default 2 MB L2, so every
        # Vantage job here is exempt from the steady-state guard: these
        # workloads price the front door, not the kernel.
        return Workload(name, jobs, front, 2, frozenset(j.mix.name for j in jobs))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def digest(jobs, results) -> str:
    """SHA-256 over ``(mix, scheme, seed, result)`` in stream order."""
    h = hashlib.sha256()
    for job, result in zip(jobs, results):
        row = [job.mix.name, job.scheme, job.seed, asdict(result)]
        h.update(json.dumps(row, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()
