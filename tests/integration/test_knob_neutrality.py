"""Every execution knob is bitwise-neutral.

:data:`repro.options.KNOBS` splits the ``REPRO_*`` names into outcome
knobs, which shape the jobs a figure builds and so reach the
results-cache key through the job, and execution knobs, which change
only the lane, the workers, the caches or the transport.  This test
holds one value for every execution knob -- a new knob must bring
one -- and runs a small ``run_jobs`` sweep under each: every outcome
and every job key must equal the default run's.
"""

from __future__ import annotations

import pytest

from repro import options, traces
from repro.harness import SimJob, results_cache, run_jobs
from repro.sim import small_system
from repro.workloads import make_mix

#: One non-default value per execution knob; ``{tmp}`` is the test's
#: scratch directory.
VALUES = {
    "REPRO_FUSED": "0",
    "REPRO_TRACE_CACHE": "{tmp}/traces",
    "REPRO_TRACE_SHM": "1",
    # Inline, where the default on a multi-CPU host is the pool.
    "REPRO_WORKERS": "1",
    "REPRO_RESULTS_CACHE": "0",
    "REPRO_CACHE_DIR": "{tmp}/elsewhere",
    # Nothing listens there: the sweep falls back to the local pool.
    "REPRO_FED_GATEWAY": "{tmp}/no-gateway.sock",
    "REPRO_SERVICE_SOCKET": "{tmp}/service.sock",
    "REPRO_SERVICE_ADDR": "127.0.0.1:9",
    "REPRO_GATEWAY_SOCKET": "{tmp}/gateway.sock",
}

JOBS = [
    SimJob(make_mix("sftn", 1), scheme, small_system(), 8_000, seed=0)
    for scheme in ("vantage-z4/16", "lru-sa16")
]


def test_values_cover_exactly_the_execution_knobs():
    assert set(VALUES) == {n for n, k in options.KNOBS.items() if not k.outcome}


def _sweep(monkeypatch, workdir, env: dict[str, str]):
    """``JOBS`` through ``run_jobs`` from a fresh working directory (so
    the default results cache starts cold), under ``env`` only."""
    for name in options.KNOBS:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    traces.reset_store()
    try:
        outcomes = run_jobs(JOBS)
        keys = [results_cache.job_key(job) for job in JOBS]
    finally:
        traces.release_shared()
        traces.reset_store()
    return outcomes, keys


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        return _sweep(mp, tmp_path_factory.mktemp("knobs") / "default", {})


@pytest.mark.parametrize("name", sorted(VALUES))
def test_execution_knob_is_bitwise_neutral(monkeypatch, tmp_path, default_run, name):
    value = VALUES[name].format(tmp=tmp_path)
    outcomes, keys = _sweep(monkeypatch, tmp_path / "run", {name: value})
    assert outcomes == default_run[0], f"{name}={value} changed an outcome"
    assert keys == default_run[1], f"{name}={value} changed a job key"
