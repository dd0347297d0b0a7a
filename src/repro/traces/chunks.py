"""Compiling generator streams into flat integer chunk buffers.

A chunk is ``array('q')`` of ``2 * chunk_pairs`` items: interleaved
``gap, addr, gap, addr, ...`` pairs.  Flat native-int buffers are what
makes the event loop's chunk cursor cheap (two indexed reads per
event, no generator frame resume, no tuple allocation) and what makes
the shared chunk files compact (the raw buffer bytes, with no
serialisation framing, mapped straight back as ``memoryview('q')``).
"""

from __future__ import annotations

from array import array
from itertools import chain, islice

#: Pairs per chunk (4K pairs = 64 KiB of int64), sized to what short
#: jobs read.
DEFAULT_CHUNK_PAIRS = 4_096


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


def chunk_instructions(buf) -> int:
    """Instructions covered by one compiled chunk buffer.

    Every ``(gap, addr)`` pair is ``gap`` skipped instructions plus
    the access itself, so a chunk covers ``pairs + sum(gaps)``.  The
    publish phase uses this to size the chunk prefix a
    job of N instructions will consume; the extended-slice ``sum``
    keeps it at C speed for both ``array('q')`` and memoryview chunks.
    """
    return len(buf) // 2 + sum(buf[0::2])

