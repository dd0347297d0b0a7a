"""``CACHE_VERSION`` moves with the goldens.

The results cache keys a job by its description, ``CACHE_VERSION`` and
the scheme's builder fingerprint; a change to the simulation loop
itself is visible only to ``CACHE_VERSION``.  The cold and steady-state
goldens (``tests/golden/*.json``) change exactly when simulated
behaviour does, so their digest is pinned per version: goldens that
change while the version does not would let stale cached results be
served as fresh ones.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.harness.results_cache import CACHE_VERSION

GOLDEN = Path(__file__).resolve().parents[1] / "golden"

#: ``CACHE_VERSION`` -> sha256 over the goldens (name, then bytes, in
#: name order).
PINNED = {3: "beaca19298eadce0c7aed5671eae6e65f65ce1779950b33a071e9d9e697c2a54"}


def goldens_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(GOLDEN.glob("*.json")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_goldens_change_only_with_a_cache_version_bump():
    assert PINNED.get(CACHE_VERSION) == goldens_digest(), (
        "tests/golden/*.json changed under the same CACHE_VERSION: "
        "bump CACHE_VERSION and re-pin"
    )
