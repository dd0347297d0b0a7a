"""Every ``REPRO_*`` environment knob, parsed and validated in one place.

:data:`KNOBS` holds one entry per name: its parser, what :func:`get`
returns when the variable is unset or empty, whether it changes
simulated outcomes, and a one-line doc (README "Environment flags" is
the same table).  :func:`get` is the only environment reader in
``repro`` and runs at each use, so a knob can change between runs
without reimporting.  *Outcome* knobs shape the jobs a figure builds,
so they reach the results-cache key through the job; the others only
pick the lane, workers, caches or transport and are bitwise-neutral.

The first :func:`get` in a process warns (:class:`UnknownKnobWarning`)
once per set ``REPRO_*`` name the table does not know.  This module
imports only the stdlib.
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path
from typing import Any, Callable, NamedTuple


class UnknownKnobWarning(UserWarning):
    """A ``REPRO_*`` variable is set that no knob reads."""


class Knob(NamedTuple):
    parse: Callable[[str, str], Any]  # (name, non-empty raw value)
    default: Any  # None: the caller picks
    outcome: bool
    doc: str


def _flag(name: str, raw: str) -> bool:
    if raw not in ("0", "1"):
        raise ValueError(f"{name} must be 0 or 1, got {raw!r}")
    return raw == "1"


def _int(name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def _count(name: str, raw: str) -> int:
    value = _int(name, raw)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def _path(name: str, raw: str) -> Path:
    return Path(raw)


# Address parsers are the ones ``--tcp`` and ``--node`` use, imported
# lazily to keep this module free of ``repro`` imports.
def _addr(name: str, raw: str) -> tuple[str, int]:
    from repro.service.protocol import parse_addr

    return parse_addr(raw, what=name)


def _endpoint(name: str, raw: str) -> tuple[str, int] | Path:
    from repro.service.protocol import parse_node

    return parse_node(raw, what=name)


_RESULTS = Path("results")

KNOBS: dict[str, Knob] = {
    "REPRO_INSTRUCTIONS": Knob(_int, None, True, "instructions per application"),
    "REPRO_MIXES_PER_CLASS": Knob(_int, None, True, "mixes per workload class"),
    "REPRO_CLASS_STRIDE": Knob(_int, None, True, "subsample the 35 mix classes"),
    "REPRO_EPOCH_CYCLES": Knob(_int, None, True, "UCP repartitioning period"),
    "REPRO_FUSED": Knob(_flag, True, False, "0: object path, no batch kernels"),
    "REPRO_TRACE_CACHE": Knob(_path, None, False, "persistent trace-chunk root"),
    "REPRO_TRACE_SHM": Knob(_flag, False, False, "1: publish chunks to /dev/shm"),
    "REPRO_WORKERS": Knob(_count, None, False, "run_jobs workers (CPU count)"),
    "REPRO_RESULTS_CACHE": Knob(_flag, True, False, "0: no results cache"),
    "REPRO_CACHE_DIR": Knob(_path, _RESULTS / "cache", False, "results-cache dir"),
    "REPRO_FED_GATEWAY": Knob(_endpoint, None, False, "run_jobs via this gateway"),
    "REPRO_SERVICE_SOCKET": Knob(_path, _RESULTS / "service.sock", False, "daemon socket"),
    "REPRO_SERVICE_ADDR": Knob(_addr, None, False, "daemon's TCP endpoint"),
    "REPRO_GATEWAY_SOCKET": Knob(_path, _RESULTS / "gateway.sock", False, "gateway socket"),
}

_checked = False


def get(name: str) -> Any:
    """Knob ``name``, parsed; its default when unset or empty.

    A name missing from :data:`KNOBS` raises ``KeyError``; a malformed
    value raises an error naming the variable.
    """
    global _checked
    knob = KNOBS[name]
    if not _checked:
        _checked = True
        for unknown in sorted(os.environ):
            if unknown.startswith("REPRO_") and unknown not in KNOBS:
                message = f"{unknown} is set but is not a repro knob"
                warnings.warn(message, UnknownKnobWarning, stacklevel=2)
    raw = os.environ.get(name)
    return knob.parse(name, raw) if raw else knob.default
