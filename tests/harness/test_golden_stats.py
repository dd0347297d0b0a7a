"""Golden-stats regression tests.

Each pinned scheme runs the same fixed mix/seed/instruction budget and
its *entire* exported stats tree is compared against a checked-in JSON
snapshot in ``tests/golden/``.  Any change to simulation behaviour, to
the stats schema, or to counter semantics shows up as a diff here.

Regenerating (after an intentional change)::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/harness/test_golden_stats.py

then review the JSON diff like any other code change.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro import telemetry
from repro.harness.runner import run_mix
from repro.sim import small_system
from repro.workloads import SharedRegionSpec, make_mix, make_shared_mix

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

#: Pinned run: do not change without regenerating every golden file.
MIX_CLASS = "sftn"
MIX_INDEX = 1
SEED = 0
INSTRUCTIONS = 8_000

#: ``vantage-analytical-z4/52`` pins the Section 6.2 model tree
#: (histogram recompute counters included); any drift in the model
#: shows up here, not just in the Sec 6.2 validation benchmark.
SCHEMES = [
    "vantage-z4/52",
    "waypart-sa16",
    "pipp-sa64",
    "drrip-z4/16",
    "vantage-analytical-z4/52",
]

#: Pinned shared-region overlay for the reuse-aware golden tree.
SHARED_SPEC = SharedRegionSpec(kind="shared-table", lines=512, fraction=0.35)


def _golden_path(scheme: str) -> Path:
    return GOLDEN_DIR / f"stats_{scheme.replace('/', '_')}.json"


def _run_snapshot(scheme: str, shared: bool = False) -> dict:
    prev = telemetry.enabled()
    try:
        telemetry.set_enabled(True)
        config = small_system()
        if shared:
            mix = make_shared_mix(MIX_CLASS, MIX_INDEX, SHARED_SPEC)
        else:
            mix = make_mix(MIX_CLASS, MIX_INDEX)
        run = run_mix(mix, scheme, config, INSTRUCTIONS, seed=SEED)
    finally:
        telemetry.set_enabled(prev)
    # Round-trip through JSON so the comparison sees exactly what the
    # export writes (tuples become lists, keys become strings).
    return json.loads(json.dumps(run.stats()))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_stats_tree_matches_golden(scheme):
    snapshot = _run_snapshot(scheme)
    path = _golden_path(scheme)
    if os.environ.get("REPRO_REGEN_GOLDEN") == "1":
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    golden = json.loads(path.read_text())
    assert snapshot == golden, (
        f"stats tree for {scheme} diverged from {path.name}; if the "
        f"change is intentional, regenerate with REPRO_REGEN_GOLDEN=1"
    )


def test_reuse_aware_stats_tree_matches_golden():
    """The reuse-aware scheme on the pinned shared mix: covers the
    sharing stats group, the shared-hit counters and the reuse-aware
    policy's classification telemetry in one snapshot."""
    scheme = "reuse-aware-z4/52"
    snapshot = _run_snapshot(scheme, shared=True)
    sharing = snapshot["cache"]["sharing"]
    assert sharing["policy"] == "migrate-to-requester"
    assert sum(sharing["shared_hits"]) > 0
    path = _golden_path(scheme)
    if os.environ.get("REPRO_REGEN_GOLDEN") == "1":
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    golden = json.loads(path.read_text())
    assert snapshot == golden, (
        f"stats tree for {scheme} diverged from {path.name}; if the "
        f"change is intentional, regenerate with REPRO_REGEN_GOLDEN=1"
    )


def test_golden_trees_have_stable_roots():
    """The top-level schema is shared: every partitioned golden tree
    has cache/array/sim/policy roots, baselines all but policy."""
    for scheme in SCHEMES:
        golden = json.loads(_golden_path(scheme).read_text())
        expected = {"cache", "array", "sim"}
        if scheme != "drrip-z4/16":
            expected.add("policy")
        assert set(golden) == expected, scheme


def test_snapshot_is_deterministic():
    """Two runs of the pinned configuration export identical trees."""
    a = _run_snapshot(SCHEMES[0])
    b = _run_snapshot(SCHEMES[0])
    assert a == b
