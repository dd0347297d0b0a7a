"""H3 universal hashing (Carter & Wegman, 1977).

The paper indexes all evaluated caches with "simple H3 hashing" [1, 21].
An H3 function treats the key as a bit vector and XORs together a random
mask per set bit; the result is a GF(2)-linear map from keys to bucket
indices.  We implement the standard byte-wise *tabulation* form: eight
tables of 256 random masks, one table per key byte.  XOR-ing one entry
per byte computes exactly the same family (the tables encode the
per-bit masks) at an eighth of the Python-level work.
"""

from __future__ import annotations

import random
from array import array

try:  # pragma: no cover - exercised via the gated bulk path
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

_KEY_BYTES = 8
_MASK_BITS = 32


class H3Hash:
    """One member of the H3 family, mapping 64-bit keys to buckets.

    Parameters
    ----------
    num_buckets:
        Number of output buckets.  Must be a power of two so the
        low-bit mask preserves GF(2) linearity.
    seed:
        Seed selecting the family member.  Two ``H3Hash`` objects with
        the same seed compute the same function.
    """

    def __init__(self, num_buckets: int, seed: int):
        if num_buckets <= 0 or num_buckets & (num_buckets - 1):
            raise ValueError(f"num_buckets must be a power of two, got {num_buckets}")
        self.num_buckets = num_buckets
        self.seed = seed
        rng = random.Random(seed)
        # One random mask per key bit (the H3 definition); each table
        # entry is the XOR of the masks of its byte value's set bits,
        # so byte-wise lookup computes the exact H3 function and the
        # family stays GF(2)-linear.
        #
        # The masks of the low log2(num_buckets) key bits are made
        # unit-triangular (bit i's mask has bit i set and randomness
        # only below it), which keeps the map bijective on any aligned
        # 2^b key range: purely random masks can be rank-deficient
        # over GF(2) and leave whole buckets unreachable for small,
        # dense address spaces.
        bucket_bits = num_buckets.bit_length() - 1
        all_masks = []
        for i in range(_KEY_BYTES * 8):
            mask = rng.getrandbits(_MASK_BITS)
            if i < bucket_bits:
                low = (rng.getrandbits(i) if i else 0) | (1 << i)
                mask = (mask & ~(num_buckets - 1)) | low
            all_masks.append(mask)
        self._tables = []
        for byte_index in range(_KEY_BYTES):
            bit_masks = all_masks[byte_index * 8 : byte_index * 8 + 8]
            table = []
            for value in range(256):
                h = 0
                for bit in range(8):
                    if value >> bit & 1:
                        h ^= bit_masks[bit]
                table.append(h)
            self._tables.append(table)
        self._mask = num_buckets - 1
        self._np_tables = None

    def __call__(self, key: int) -> int:
        t = self._tables
        h = (
            t[0][key & 0xFF]
            ^ t[1][(key >> 8) & 0xFF]
            ^ t[2][(key >> 16) & 0xFF]
            ^ t[3][(key >> 24) & 0xFF]
        )
        if key >> 32:
            h ^= (
                t[4][(key >> 32) & 0xFF]
                ^ t[5][(key >> 40) & 0xFF]
                ^ t[6][(key >> 48) & 0xFF]
                ^ t[7][(key >> 56) & 0xFF]
            )
        else:
            # XOR of the tables' zero entries keeps h(key) consistent
            # with the full 8-byte evaluation.
            h ^= t[4][0] ^ t[5][0] ^ t[6][0] ^ t[7][0]
        return h & self._mask

    def bulk(self, keys):
        """Vectorized ``__call__`` over a numpy int64 key array.

        The XOR of the four high byte tables is a function of the
        key's upper half alone.  When every key shares that half (one
        core's addresses: the core sits in the top bits, the footprint
        fits the low 32), it is one scalar ``__call__`` evaluation
        XORed in; otherwise all eight byte tables are gathered.  For
        keys below 2^32 the high bytes index the tables' zero entries
        -- exactly the constant ``__call__``'s short-circuit XORs in
        -- so either way the results are bit-identical to the scalar
        path.  Requires numpy (callers gate on availability).
        """
        tables = self._np_tables
        if tables is None:
            tables = self._np_tables = [
                _np.asarray(t, dtype=_np.int64) for t in self._tables
            ]
        h = tables[0][keys & 0xFF]
        for b in range(1, _KEY_BYTES // 2):
            h ^= tables[b][(keys >> (8 * b)) & 0xFF]
        high = keys >> 32
        if len(high) and (high == high[0]).all():
            t = self._tables
            upper = int(high[0])
            h ^= (
                t[4][upper & 0xFF]
                ^ t[5][(upper >> 8) & 0xFF]
                ^ t[6][(upper >> 16) & 0xFF]
                ^ t[7][(upper >> 24) & 0xFF]
            )
        else:
            for b in range(_KEY_BYTES // 2, _KEY_BYTES):
                h ^= tables[b][(keys >> (8 * b)) & 0xFF]
        return h & self._mask

    def column(self, chunk) -> array:
        """This hash of every address in a trace chunk (see
        :func:`hash_column`)."""
        return hash_column(chunk, (self,), (0,))

    def __repr__(self) -> str:
        return f"H3Hash(num_buckets={self.num_buckets}, seed={self.seed})"


class H3Family:
    """A tuple of independent H3 functions, one per cache way.

    Skew-associative caches and zcaches index each way with a different
    hash function; this helper derives ``num_ways`` members of the
    family from a single seed.
    """

    def __init__(self, num_ways: int, num_buckets: int, seed: int = 0):
        if num_ways <= 0:
            raise ValueError(f"num_ways must be positive, got {num_ways}")
        self.num_ways = num_ways
        self.num_buckets = num_buckets
        self.seed = seed
        base = random.Random(seed)
        self.functions = tuple(
            H3Hash(num_buckets, base.getrandbits(62)) for _ in range(num_ways)
        )
        # Fused tabulation tables: entry v of byte table b packs every
        # way's table[b][v] into one integer, 32 bits per way.  XOR is
        # bitwise, so one lookup chain evaluates all ways at once --
        # the per-way results are bit-identical to calling each
        # H3Hash separately.  Each lane is pre-masked to the bucket
        # width (AND distributes over XOR), so lane values never carry
        # into the next lane and callers may add per-lane offsets to
        # the packed result.
        bucket_mask = num_buckets - 1
        self._fused = []
        for byte_index in range(_KEY_BYTES):
            table = []
            for value in range(256):
                packed = 0
                for way, fn in enumerate(self.functions):
                    lane = fn._tables[byte_index][value] & bucket_mask
                    packed |= lane << (_MASK_BITS * way)
                table.append(packed)
            self._fused.append(table)
        self._fused_zero_high = (
            self._fused[4][0]
            ^ self._fused[5][0]
            ^ self._fused[6][0]
            ^ self._fused[7][0]
        )
        self._bucket_mask = num_buckets - 1

    def __getitem__(self, way: int) -> H3Hash:
        return self.functions[way]

    def __len__(self) -> int:
        return self.num_ways

    def packed(self, key: int) -> int:
        """All ways' bucket indices of ``key``, packed 32 bits per way
        (lane ``way`` holds way ``way``'s bucket)."""
        t = self._fused
        h = (
            t[0][key & 0xFF]
            ^ t[1][(key >> 8) & 0xFF]
            ^ t[2][(key >> 16) & 0xFF]
            ^ t[3][(key >> 24) & 0xFF]
        )
        if key >> 32:
            return h ^ (
                t[4][(key >> 32) & 0xFF]
                ^ t[5][(key >> 40) & 0xFF]
                ^ t[6][(key >> 48) & 0xFF]
                ^ t[7][(key >> 56) & 0xFF]
            )
        return h ^ self._fused_zero_high

    def positions(self, key: int) -> tuple[int, ...]:
        """Bucket index of ``key`` in every way."""
        h = self.packed(key)
        mask = self._bucket_mask
        return tuple(
            (h >> (_MASK_BITS * way)) & mask for way in range(self.num_ways)
        )


def hash_column(chunk, hashes, offsets) -> array:
    """The index column of one trace chunk.

    ``chunk`` holds flat ``gap, addr`` pairs in any of the trace
    store's forms (a list, ``array('q')`` or a shared-memory
    ``memoryview('q')``).  The result interleaves one entry per hash:
    entry ``i * len(hashes) + w`` is ``hashes[w](addr_i) +
    offsets[w]`` for the chunk's ``i``-th address, so a batch kernel
    at flat cursor ``pos`` (just past pair ``i``) finds its entries at
    ``((pos >> 1) - 1) * len(hashes)``.

    This is the only place that chooses between numpy and the scalar
    H3 evaluation: with numpy each hash is one vectorized
    :meth:`H3Hash.bulk` over the chunk's addresses (zero-copy for the
    buffer forms), without it every address is hashed one at a time.
    Both produce the same int64 column, bit for bit.
    """
    if _np is None:
        pairs = tuple(zip(hashes, offsets))
        return array(
            "q", [h(a) + off for a in chunk[1::2] for h, off in pairs]
        )
    keys = _np.asarray(chunk, dtype=_np.int64)[1::2]
    if len(hashes) == 1:
        column = hashes[0].bulk(keys) + offsets[0]
    else:
        column = _np.empty((len(keys), len(hashes)), dtype=_np.int64)
        for w, h in enumerate(hashes):
            column[:, w] = h.bulk(keys) + offsets[w]
    return array("q", column.tobytes())
