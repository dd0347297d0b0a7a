"""Golden-stats regression tests.

Each pinned scheme runs the same fixed mix/seed/instruction budget and
its *entire* exported stats tree is compared against a checked-in JSON
snapshot in ``tests/golden/``.  Any change to simulation behaviour, to
the stats schema, or to counter semantics shows up as a diff here.

Every scheme has two goldens.  The cold one (``stats_<scheme>.json``)
runs on the default 2 MB L2, which the run never fills: it pins cold
fill and the stats schema.  The steady-state one
(``stats_steady_<scheme>.json``) runs on an L2 small enough to fill
early, so it pins what only a full array exercises -- eviction,
Vantage demotion and setpoint feedback, and repartitioning across
several epochs.  Its test asserts those preconditions, so a config
change cannot quietly shrink it back to cold fill.

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
from repro.core import VantageCache
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

#: Pinned steady-state run: a 128-line L2 fills within the first few
#: thousand instructions, and a short epoch repartitions it about
#: twenty times before the run ends.
STEADY_L2_BYTES = 8 * 1024
STEADY_EPOCH_CYCLES = 20_000
STEADY_INSTRUCTIONS = 20_000

#: Schemes with a steady-state golden: every cold-golden scheme.
STEADY_SCHEMES = SCHEMES + ["reuse-aware-z4/52"]


def _golden_path(scheme: str, steady: bool = False) -> Path:
    prefix = "stats_steady_" if steady else "stats_"
    return GOLDEN_DIR / f"{prefix}{scheme.replace('/', '_')}.json"


def _run(scheme: str, steady: bool = False):
    """Run the pinned configuration; returns the run and its stats
    snapshot.  The reuse-aware scheme runs on the shared mix."""
    prev = telemetry.enabled()
    try:
        telemetry.set_enabled(True)
        if steady:
            config = small_system(
                l2_bytes=STEADY_L2_BYTES, epoch_cycles=STEADY_EPOCH_CYCLES
            )
            instructions = STEADY_INSTRUCTIONS
        else:
            config = small_system()
            instructions = INSTRUCTIONS
        if scheme == "reuse-aware-z4/52":
            mix = make_shared_mix(MIX_CLASS, MIX_INDEX, SHARED_SPEC)
        else:
            mix = make_mix(MIX_CLASS, MIX_INDEX)
        run = run_mix(mix, scheme, config, instructions, seed=SEED)
    finally:
        telemetry.set_enabled(prev)
    # Round-trip through JSON so the comparison sees exactly what the
    # export writes (tuples become lists, keys become strings).
    return run, json.loads(json.dumps(run.stats()))


def _assert_matches_golden(scheme: str, snapshot: dict, path: Path) -> None:
    if os.environ.get("REPRO_REGEN_GOLDEN") == "1":
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    golden = json.loads(path.read_text())
    assert snapshot == golden, (
        f"stats tree for {scheme} diverged from {path.name}; if the "
        f"change is intentional, regenerate with REPRO_REGEN_GOLDEN=1"
    )


@pytest.mark.parametrize("scheme", SCHEMES)
def test_stats_tree_matches_golden(scheme):
    _assert_matches_golden(scheme, _run(scheme)[1], _golden_path(scheme))


def test_reuse_aware_stats_tree_matches_golden():
    """The reuse-aware scheme on the pinned shared mix: covers the
    sharing stats group, the shared-hit counters and the reuse-aware
    policy's classification telemetry in one snapshot."""
    scheme = "reuse-aware-z4/52"
    snapshot = _run(scheme)[1]
    sharing = snapshot["cache"]["sharing"]
    assert sharing["policy"] == "migrate-to-requester"
    assert sum(sharing["shared_hits"]) > 0
    _assert_matches_golden(scheme, snapshot, _golden_path(scheme))


@pytest.mark.parametrize("scheme", STEADY_SCHEMES)
def test_steady_state_stats_tree_matches_golden(scheme):
    """The same schemes on a full array: evicting, demoting (Vantage)
    and repartitioning (partitioned schemes) every few thousand
    cycles."""
    run, snapshot = _run(scheme, steady=True)
    array = run.cache.array
    assert len(array._slot_of) == array.num_lines, f"{scheme}: array never filled"
    assert sum(run.cache.stats.evictions) > 0, f"{scheme}: evicted nothing"
    if isinstance(run.cache, VantageCache):
        assert sum(run.cache.demotions) > 0, f"{scheme}: demoted nothing"
    if "policy" in snapshot:
        assert snapshot["sim"]["epochs"] >= 3, f"{scheme}: fewer than 3 epochs"
    _assert_matches_golden(scheme, snapshot, _golden_path(scheme, steady=True))


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
    a = _run(SCHEMES[0])[1]
    b = _run(SCHEMES[0])[1]
    assert a == b
