"""Synthetic address-stream generators.

Each generator yields an infinite stream of ``(gap, line_addr)``
pairs: ``gap`` is the number of instructions executed since the
previous L2 access (the traces are post-L1, matching how the paper's
L2 sees each core), and ``line_addr`` is a line address inside the
application's private address space.

The four shapes map to the paper's four workload categories (Table 3)
through their miss-versus-capacity curves under LRU:

- ``zipf_stream`` over a small working set: *insensitive* -- all
  reuse hits in a tiny footprint, so extra capacity changes nothing.
- ``zipf_stream`` over a large working set: *cache-friendly* -- the
  skewed popularity law makes misses fall smoothly as capacity grows.
- ``loop_stream``: *cache-fitting* -- a sequential loop under LRU
  misses on everything until the allocation covers the whole working
  set, then on nothing: the sharp knee.
- ``scan_stream``: *thrashing/streaming* -- sequential access over a
  region far larger than the cache; no allocation helps.

``phased_stream`` alternates two generators to create the time-varying
behaviour UCP reacts to in Figure 8.

The ``*_shared`` wrappers turn a private per-core stream into a
multi-threaded one: with probability ``fraction`` an access is
redirected into a *shared region* that overlaps the same lines on
every core of the mix.  The private stream still advances (its gap is
kept, so timing is unchanged); only the line address is substituted.
Three sharing shapes are provided:

- ``producer_consumer_stream``: every core sweeps one common ring in
  the same order, offset by a per-core phase -- lines installed by one
  core are re-read by the cores trailing it.
- ``shared_table_stream``: Zipf-popular reads of a common table; the
  popularity law and line permutation derive from ``shared_seed``
  alone, so the *same* lines are hot on every core (read-mostly
  sharing).
- ``migratory_stream``: cores take turns owning the shared set in
  time-slice windows; within its window a core sweeps the region with
  boosted probability, so lines migrate between partitions over time.
"""

from __future__ import annotations

import random
from array import array
from collections import Counter
from collections.abc import Iterator
from itertools import accumulate, repeat
from math import log as _log

TracePair = tuple[int, int]

#: Zipf tables kept by :func:`zipf_cdf`, :func:`zipf_guide` and
#: :func:`shared_table`.  The 20 Zipf apps need 20 CDFs, but the
#: experiment daemon's workers are resident for days, so each memo
#: drops its oldest table once full rather than keeping one per
#: parameter set it ever saw.
MAX_ZIPF_TABLES = 32

_cdf_memo: dict[tuple[int, float], memoryview] = {}
_guide_memo: dict[tuple[int, float], tuple[memoryview, float]] = {}
_shared_memo: dict[tuple[int, float, int], tuple[memoryview, memoryview]] = {}


def _remember(memo: dict, key, value):
    while len(memo) >= MAX_ZIPF_TABLES:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


def zipf_cdf(lines: int, alpha: float) -> memoryview:
    """Cumulative Zipf(alpha) weights over ranks ``1..lines`` (the last
    one is the total), shared by every generator with these
    parameters.

    A read-only ``memoryview`` over ``array('d')``: 8 B per rank and no
    float object per entry.  Generators find ranks in it through
    :func:`zipf_guide`, not ``bisect``, which would box a float per
    probe.
    """
    key = (lines, alpha)
    cumulative = _cdf_memo.get(key)
    if cumulative is None:
        weights = map(pow, range(1, lines + 1), repeat(-alpha))
        cumulative = _remember(
            _cdf_memo, key, memoryview(array("d", accumulate(weights))).toreadonly()
        )
    return cumulative


def zipf_guide(lines: int, alpha: float) -> tuple[memoryview, float]:
    """``(guide, scale)``: a bucket index over ``zipf_cdf(lines,
    alpha)`` that turns the rank search into one table read and a
    short forward scan.

    A draw ``x`` (``0 <= x <= total``) falls in bucket ``int(x *
    scale)``, with ``scale = lines / total`` so there are about as
    many buckets as ranks.  ``guide[j]`` counts the ranks whose CDF
    value falls in a bucket below ``j``; the rank of ``x`` is then
    exactly ``bisect_left(cdf, x)`` as::

        rank = guide[int(x * scale)]
        while cdf[rank] < x:
            rank += 1

    The guide never overshoots: a rank counted in ``guide[j]`` has
    ``int(cdf[rank] * scale) < int(x * scale)``, and since rounding a
    product by a positive constant is monotone, ``cdf[rank] < x``.  So
    the scan only runs forward, and it stops at the first ``cdf[rank]
    >= x``, which exists because ``x <= total``.  About half a step on
    average.  Shared like the CDF (read-only ``array('q')``).
    """
    key = (lines, alpha)
    table = _guide_memo.get(key)
    if table is None:
        cumulative = zipf_cdf(lines, alpha)
        scale = lines / cumulative[-1]
        buckets = Counter(map(int, map(scale.__mul__, cumulative)))
        top = int(cumulative[-1] * scale)
        guide = array(
            "q", accumulate(map(buckets.get, range(top), repeat(0)), initial=0)
        )
        table = _remember(_guide_memo, key, (memoryview(guide).toreadonly(), scale))
    return table


def _permutation(lines: int, rng: random.Random, base: int = 0) -> array:
    """Line addresses ``base .. base + lines - 1`` in popularity-rank
    order, shuffled by ``rng``: int64, 8 B per line, and the same draws
    as shuffling a list of ``lines`` items."""
    perm = array("q", range(base, base + lines))
    rng.shuffle(perm)
    return perm


def _gap(rng: random.Random, mean_gap: float) -> int:
    """Geometric-ish instruction gap with the requested mean."""
    return int(rng.expovariate(1.0 / mean_gap)) if mean_gap > 0 else 0


def zipf_stream(
    ws_lines: int,
    alpha: float,
    mean_gap: float,
    base: int,
    seed: int,
) -> Iterator[TracePair]:
    """Independent references with Zipf(alpha) popularity over
    ``ws_lines`` lines."""
    if ws_lines <= 0:
        raise ValueError("ws_lines must be positive")
    rng = random.Random(seed)
    cumulative = zipf_cdf(ws_lines, alpha)
    guide, scale = zipf_guide(ws_lines, alpha)
    total = cumulative[-1]
    # Map popularity ranks to scattered line offsets so the footprint
    # is not contiguous (defeats accidental spatial effects).
    perm = _permutation(ws_lines, rng, base)
    # Hot loop: expovariate is inlined (its body is exactly
    # ``-log(1 - random()) / lambd``) and so is the guide-table rank
    # search (see zipf_guide), so each item costs two C-level RNG
    # draws, a guide read, a short scan and one log -- no Python calls.
    rnd = rng.random
    lambd = 1.0 / mean_gap if mean_gap > 0 else None
    while True:
        x = rnd() * total
        rank = guide[int(x * scale)]
        while cumulative[rank] < x:
            rank += 1
        if lambd is None:
            yield 0, perm[rank]
        else:
            yield int(-_log(1.0 - rnd()) / lambd), perm[rank]


def loop_stream(
    ws_lines: int,
    mean_gap: float,
    base: int,
    seed: int,
) -> Iterator[TracePair]:
    """Sequential loop over ``ws_lines`` lines (cache-fitting knee)."""
    if ws_lines <= 0:
        raise ValueError("ws_lines must be positive")
    rng = random.Random(seed)
    rnd = rng.random
    lambd = 1.0 / mean_gap if mean_gap > 0 else None
    index = 0
    while True:
        if lambd is None:
            yield 0, base + index
        else:
            yield int(-_log(1.0 - rnd()) / lambd), base + index
        index += 1
        if index >= ws_lines:
            index = 0


def scan_stream(
    region_lines: int,
    mean_gap: float,
    base: int,
    seed: int,
) -> Iterator[TracePair]:
    """Endless sequential scan over a huge region (streaming)."""
    return loop_stream(region_lines, mean_gap, base, seed)


def _shared_rng(shared_seed: int, seed: int) -> random.Random:
    """Per-core RNG for shared-region decisions.

    ``seed`` is the core's private stream seed (which already encodes
    the run seed and the core id), so cores draw independent decision
    streams while the run as a whole stays reproducible.
    """
    return random.Random(shared_seed * 1_000_003 + seed)


def producer_consumer_stream(
    private: Iterator[TracePair],
    shared_base: int,
    shared_lines: int,
    fraction: float,
    core: int,
    num_cores: int,
    shared_seed: int,
    seed: int,
) -> Iterator[TracePair]:
    """Common ring swept in the same order by every core.

    Each core starts at a phase offset of ``shared_lines/num_cores``
    lines, so the lines one core installs are re-touched by the cores
    behind it: classic producer/consumer reuse where the requester is
    rarely the line's first-touch owner.
    """
    if shared_lines <= 0:
        raise ValueError("shared_lines must be positive")
    rnd = _shared_rng(shared_seed, seed).random
    pos = (core * shared_lines) // max(1, num_cores)
    while True:
        gap, addr = next(private)
        if rnd() < fraction:
            addr = shared_base + pos
            pos += 1
            if pos >= shared_lines:
                pos = 0
        yield gap, addr


def shared_table(
    shared_lines: int, alpha: float, shared_seed: int
) -> tuple[memoryview, memoryview]:
    """``(cumulative, perm)`` of a shared Zipf table: a pure function
    of its arguments, so every core of a mix reads one read-only copy
    (``perm`` holds line offsets within the region)."""
    key = (shared_lines, alpha, shared_seed)
    table = _shared_memo.get(key)
    if table is None:
        perm = _permutation(shared_lines, random.Random(shared_seed))
        table = _remember(
            _shared_memo,
            key,
            (zipf_cdf(shared_lines, alpha), memoryview(perm).toreadonly()),
        )
    return table


def shared_table_stream(
    private: Iterator[TracePair],
    shared_base: int,
    shared_lines: int,
    fraction: float,
    alpha: float,
    core: int,
    num_cores: int,
    shared_seed: int,
    seed: int,
) -> Iterator[TracePair]:
    """Read-mostly shared table with Zipf(alpha) popularity.

    The popularity ranking and the rank-to-line permutation are drawn
    from ``shared_seed`` only, so every core hammers the *same* hot
    lines -- the read-shared lookup-table pattern.
    """
    if shared_lines <= 0:
        raise ValueError("shared_lines must be positive")
    cumulative, perm = shared_table(shared_lines, alpha, shared_seed)
    guide, scale = zipf_guide(shared_lines, alpha)
    total = cumulative[-1]
    rnd = _shared_rng(shared_seed, seed).random
    while True:
        gap, addr = next(private)
        if rnd() < fraction:
            x = rnd() * total
            rank = guide[int(x * scale)]
            while cumulative[rank] < x:
                rank += 1
            addr = shared_base + perm[rank]
        yield gap, addr


def migratory_stream(
    private: Iterator[TracePair],
    shared_base: int,
    shared_lines: int,
    fraction: float,
    window: int,
    core: int,
    num_cores: int,
    shared_seed: int,
    seed: int,
) -> Iterator[TracePair]:
    """Shared lines whose ownership migrates between cores over time.

    Cores take turns in round-robin windows of ``window`` accesses
    (counted per core): inside its window a core sweeps the shared
    region with probability ``min(1, fraction * num_cores)``, outside
    it almost never touches it -- so over the run the whole shared set
    is handed from partition to partition.  The sweep position
    persists across a core's windows, so successive owners re-touch
    the same lines.
    """
    if shared_lines <= 0:
        raise ValueError("shared_lines must be positive")
    if window <= 0:
        raise ValueError("window must be positive")
    rnd = _shared_rng(shared_seed, seed).random
    boost = min(1.0, fraction * max(1, num_cores))
    cores = max(1, num_cores)
    pos = (core * shared_lines) // cores
    n = 0
    while True:
        gap, addr = next(private)
        mine = (n // window) % cores == core
        n += 1
        if mine and rnd() < boost:
            addr = shared_base + pos
            pos += 1
            if pos >= shared_lines:
                pos = 0
        yield gap, addr


def phased_stream(
    make_phase_a,
    make_phase_b,
    phase_accesses: int,
    base: int,
    seed: int,
) -> Iterator[TracePair]:
    """Alternate two sub-streams every ``phase_accesses`` accesses.

    ``make_phase_a`` / ``make_phase_b`` are called as
    ``fn(base, seed)`` and must return generators; phases resume where
    they left off, preserving each phase's locality.
    """
    gen_a = make_phase_a(base, seed)
    gen_b = make_phase_b(base + (1 << 30), seed + 1)
    while True:
        for _ in range(phase_accesses):
            yield next(gen_a)
        for _ in range(phase_accesses):
            yield next(gen_b)
