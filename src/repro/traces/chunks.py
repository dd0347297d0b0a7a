"""Compiling generator streams into flat integer chunk buffers.

A chunk is ``array('q')`` of ``2 * chunk_pairs`` items: interleaved
``gap, addr, gap, addr, ...`` pairs.  Flat native-int buffers are what
makes the event loop's chunk cursor cheap (two indexed reads per
event, no generator frame resume, no tuple allocation) and what makes
the on-disk layer compact (``tofile``/``fromfile`` round-trips with no
serialisation framing).
"""

from __future__ import annotations

from array import array
from itertools import chain, islice

#: Default pairs per chunk (64K pairs = 1 MiB of int64 per chunk).
DEFAULT_CHUNK_PAIRS = 65_536


def compile_chunk(iterator, chunk_pairs: int) -> array:
    """Materialise the next ``chunk_pairs`` ``(gap, addr)`` pairs of
    ``iterator`` as one flat buffer.

    The ``islice``/``chain.from_iterable`` pipeline keeps the per-item
    work in C: the only Python-level cost is the generator itself.
    Trace generators are infinite by contract; a stream that ends
    mid-chunk raises ``ValueError`` rather than yielding a short
    buffer.
    """
    buf = array("q", chain.from_iterable(islice(iterator, chunk_pairs)))
    if len(buf) != 2 * chunk_pairs:
        raise ValueError(
            f"trace generator ended after {len(buf) // 2} pairs; "
            f"trace streams must be infinite"
        )
    return buf


def chunk_nbytes(chunk_pairs: int) -> int:
    """On-disk / in-memory size of one chunk in bytes."""
    return 2 * chunk_pairs * array("q").itemsize


def segment_profile(buf, start: int, limit: int, max_pairs: int) -> tuple[int, int]:
    """Accesses and summed instruction gaps of a buffer segment.

    Profiles up to ``max_pairs`` ``(gap, addr)`` pairs of ``buf``
    starting at flat index ``start`` (bounded by ``limit``), returning
    ``(pairs, gap_sum)``.  The fast-forward planner uses this to cost a
    candidate skip span at C speed: ``sum`` over an extended slice
    touches no Python-level loop, so profiling a whole chunk tail costs
    microseconds, not the milliseconds simulating it would.
    """
    if max_pairs <= 0 or start >= limit:
        return 0, 0
    end = start + 2 * max_pairs
    if end > limit:
        end = limit
    return (end - start) // 2, sum(buf[start:end:2])


def chunk_instructions(buf) -> int:
    """Instructions covered by one compiled chunk buffer.

    Every ``(gap, addr)`` pair is ``gap`` skipped instructions plus
    the access itself, so a chunk covers ``pairs + sum(gaps)``.  The
    shared-memory publish phase uses this to size the chunk prefix a
    job of N instructions will consume; the extended-slice ``sum``
    keeps it at C speed for both ``array('q')`` and memoryview chunks.
    """
    return len(buf) // 2 + sum(buf[0::2])

