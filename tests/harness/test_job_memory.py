"""A finished job frees its cache by refcounting alone.

No part of a run may hold its cache in a reference cycle: the batch
kernels are local to ``CMPSystem.run`` and no cache keeps a closure
over itself, so a resident worker's memory goes back to the allocator
when each job returns instead of piling up until the next
generation-2 collection.

The test runs with the collector disabled: every cache built during
``execute_job`` must be dead when the call returns, and a collection
afterwards must find nothing.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.harness import SimJob, runner
from repro.harness.parallel import execute_job
from repro.harness.schemes import SCHEMES
from repro.sim import small_system
from repro.workloads import make_mix

INSTRUCTIONS = 6_000

#: Array token per scheme family: way partitioning and PIPP need a
#: set-associative array, the Vantage family a zcache.
_ARRAY_FOR = {"waypart": "sa16", "pipp": "sa16"}


def _scheme_tokens() -> list[str]:
    tokens = []
    for name in SCHEMES.names():
        if name in _ARRAY_FOR:
            tokens.append(f"{name}-{_ARRAY_FOR[name]}")
        elif name.startswith(("vantage", "reuse-aware")):
            tokens.append(f"{name}-z4/52")
        else:
            tokens.append(f"{name}-sa16")
    # The zcache, skew and random-candidates baseline kernels too.
    return tokens + ["lru-z4/52", "lru-skew4", "lru-rc16"]


def _jobs() -> list[SimJob]:
    mix = make_mix("sftn", 1)
    config = small_system(l2_bytes=64 * 1024)
    return [
        SimJob(mix, scheme, config, INSTRUCTIONS, seed=0)
        for scheme in _scheme_tokens()
    ]


@pytest.fixture
def cache_refs(monkeypatch):
    refs: list[weakref.ref] = []
    build = runner.build_cache

    def tracked(*args, **kwargs):
        cache = build(*args, **kwargs)
        refs.append(weakref.ref(cache))
        return cache

    monkeypatch.setattr(runner, "build_cache", tracked)
    return refs


@pytest.mark.parametrize("fused", [None, "0"], ids=["fused-default", "fused-off"])
def test_execute_job_frees_cache_without_gc(cache_refs, monkeypatch, fused):
    if fused is None:
        monkeypatch.delenv("REPRO_FUSED", raising=False)
    else:
        monkeypatch.setenv("REPRO_FUSED", fused)
    jobs = _jobs()
    gc.collect()
    gc.disable()
    try:
        for job in jobs:
            del cache_refs[:]
            execute_job(job)
            assert len(cache_refs) == 1, job.scheme
            assert cache_refs[0]() is None, (
                f"{job.scheme}: cache outlived execute_job"
            )
            assert gc.collect() == 0, job.scheme
    finally:
        gc.enable()
