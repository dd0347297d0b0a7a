"""repro.traces: the batched trace pipeline.

The workload generators (:mod:`repro.workloads.generators`) define
each core's address stream; this package decouples *producing* those
streams from *consuming* them, the way zsim batches its instruction
feed ahead of the timing model:

- :class:`TraceSpec` names a stream by value (app name, parameters,
  base, seed) and doubles as a plain trace factory;
- :func:`~repro.traces.chunks.compile_chunk` flattens a stream into
  ``array('q')`` gap/addr chunk buffers;
- :class:`TraceStore` caches chunks under content keys, in an
  in-process LRU above one optional shared layer of chunk files mapped
  with ``mmap`` (under ``REPRO_TRACE_CACHE``, or on ``/dev/shm`` with
  ``REPRO_TRACE_SHM=1``), so one compilation feeds every scheme job --
  and every worker process -- in a sweep;
- :meth:`repro.sim.system.CMPSystem.run` consumes chunks through an
  index cursor instead of per-event generator calls (plain callable
  factories, which have no chunks, keep the generator feed).
"""

from repro.traces.chunks import DEFAULT_CHUNK_PAIRS, chunk_nbytes, compile_chunk
from repro.traces.spec import TRACE_FORMAT_VERSION, TraceSpec, generator_fingerprint
from repro.traces.store import (
    TraceStore,
    get_store,
    release_shared,
    reset_store,
    scavenge,
    shm_enabled,
)


def register_stats(group) -> None:
    """Register the process-wide trace store into a stats tree group."""
    get_store().register_stats(group)


__all__ = [
    "DEFAULT_CHUNK_PAIRS",
    "TRACE_FORMAT_VERSION",
    "TraceSpec",
    "TraceStore",
    "chunk_nbytes",
    "compile_chunk",
    "generator_fingerprint",
    "get_store",
    "register_stats",
    "release_shared",
    "reset_store",
    "scavenge",
    "shm_enabled",
]
