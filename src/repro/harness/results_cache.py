"""Content-addressed on-disk cache of simulation results.

A simulation is a pure function of its job description (mix, scheme,
system config, instruction budget, seeds and knobs), so its outcome
can be memoised on disk: re-running a figure after editing plotting
or analysis code costs nothing, and a mix suite interrupted halfway
resumes where it stopped.

Keys are SHA-256 digests of a canonical JSON encoding of the job
(plus ``CACHE_VERSION`` and the scheme's registry fingerprint);
payloads are pickled :class:`~repro.harness.parallel.SimOutcome`
objects.  The fingerprint covers the builder source of the scheme and
its array, so editing how a scheme is *constructed* invalidates its
cached results automatically; bump ``CACHE_VERSION`` for behavioural
changes the fingerprint cannot see (e.g. edits to the simulation loop
itself).

Environment knobs:

- ``REPRO_CACHE_DIR``: cache directory (default ``results/cache``).
- ``REPRO_RESULTS_CACHE=0``: disable reads and writes entirely.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path

#: Bump when simulation behaviour changes (results would differ).
CACHE_VERSION = 2

_DEFAULT_DIR = Path("results") / "cache"

#: Process-wide telemetry counters (read by the harness stats tree).
HITS = 0
MISSES = 0
STORES = 0
CORRUPT = 0


def counters() -> dict[str, int]:
    """Current hit/miss/store counts for this process."""
    return {
        "hits": HITS,
        "misses": MISSES,
        "stores": STORES,
        "corrupt_entries": CORRUPT,
    }


def register_stats(group) -> None:
    """Register the cache counters into a stats tree group."""
    group.stat("hits", lambda: HITS, "results served from the on-disk cache")
    group.stat("misses", lambda: MISSES, "results that had to be simulated")
    group.stat("stores", lambda: STORES, "fresh results persisted to disk")
    group.stat(
        "corrupt_entries",
        lambda: CORRUPT,
        "torn or unpicklable entries dropped and treated as misses",
    )


def cache_enabled() -> bool:
    return os.environ.get("REPRO_RESULTS_CACHE", "1") != "0"


def cache_dir() -> Path:
    override = os.environ.get("REPRO_CACHE_DIR")
    return Path(override) if override else _DEFAULT_DIR


def _canonical(value):
    """Reduce a job field to canonically-JSON-encodable data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__dataclass__": type(value).__name__, **fields}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"job field of type {type(value).__name__} is not cacheable")


def job_key(job) -> str:
    """Stable content hash identifying ``job``'s simulation."""
    # Imported lazily: this module is imported by repro.harness's
    # __init__ chain, while schemes.py sits above it.
    from repro.harness.schemes import scheme_fingerprint

    payload = {
        "version": CACHE_VERSION,
        "job": _canonical(job),
        "registry": scheme_fingerprint(job.scheme),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _entry_path(key: str) -> Path:
    # Two-level fan-out keeps directory listings manageable.
    return cache_dir() / key[:2] / f"{key}.pkl"


def load(key: str):
    """The cached outcome for ``key``, or ``None``.

    A corrupt entry -- torn write, truncation, stale class layout, or
    any other unpickling failure -- is never an error: the bad file is
    deleted, ``corrupt_entries`` is bumped, and the lookup reports a
    miss so the sweep simply re-simulates the job.
    """
    global HITS, MISSES, CORRUPT
    if not cache_enabled():
        return None
    path = _entry_path(key)
    try:
        with path.open("rb") as fh:
            outcome = pickle.load(fh)
    except (FileNotFoundError, IsADirectoryError):
        MISSES += 1
        return None
    except Exception:
        # Unpickling a torn or hostile payload can raise nearly
        # anything (UnpicklingError, EOFError, AttributeError,
        # ImportError, ValueError, ...): drop the entry and miss.
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass
        MISSES += 1
        CORRUPT += 1
        return None
    HITS += 1
    return outcome


def store(key: str, outcome) -> None:
    """Persist ``outcome`` under ``key`` (atomic, best-effort)."""
    global STORES
    if not cache_enabled():
        return
    STORES += 1
    path = _entry_path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(outcome, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except OSError:
        # A full or read-only disk must not fail the simulation.
        try:
            os.unlink(tmp)
        except OSError:
            pass
