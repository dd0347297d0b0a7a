"""Keyed trace store: in-process LRU over compiled chunks, with an
optional on-disk layer shared across jobs and processes.

Chunks are keyed by ``(TraceSpec.key(chunk_pairs), chunk_index)`` --
that is, by app name + parameters + address base + seed + chunking +
the generator-source fingerprint -- so every simulation of the same
mix (any scheme, any process) replays the same compiled buffers
instead of re-running the Python generators item by item.

Layers, cheapest first:

1. **memory**: an LRU of at most ``max_chunks`` buffers (default
   128 MiB worth of chunks);
2. **shared memory**: enabled by ``REPRO_TRACE_SHM=1`` -- named
   host-wide segments published once by a sweep owner (``run_jobs``
   parent, service daemon) and mapped zero-copy by every worker
   (:mod:`repro.traces.shm`);
3. **disk**: enabled when ``REPRO_TRACE_CACHE`` names a directory
   (compact ``array('q').tofile`` binaries, native byte order --
   recorded in the ``meta.json`` sidecar and verified on load, so a
   cache directory copied across endianness fails loudly instead of
   corrupting traces);
4. **compile**: pull pairs from the spec's generator.  Each trace
   keeps a *producer* (its live generator plus the next chunk index)
   so sequential requests never regenerate the prefix; a request
   behind an evicted producer restarts the generator from item zero,
   which is always correct because the streams are deterministic.

Chunks are ``DEFAULT_CHUNK_PAIRS`` pairs; the chunk-count caps
default to fixed byte budgets, so the chunk size never changes how
much memory they bound.  Knobs (``REPRO_TRACE_CACHE``,
``REPRO_TRACE_SHM``): see :mod:`repro.options`.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from array import array
from collections import OrderedDict
from pathlib import Path

from repro import options
from repro.traces.chunks import (
    DEFAULT_CHUNK_PAIRS,
    chunk_instructions,
    chunk_nbytes,
    compile_chunk,
)
from repro.traces.shm import get_pool, shm_enabled
from repro.traces.spec import TraceSpec

#: Producers kept alive per store.  A loop/scan producer holds a few
#: KiB; a Zipf producer adds its rank-to-line map at 8 B per
#: working-set line (320 KiB for the largest app, 40,960 lines; the
#: CDF is shared, see ``generators.zipf_cdf``), so the worst case here
#: is about 40 MiB.  This only bounds sweeps over many distinct traces.
MAX_PRODUCERS = 128

#: Cap on the spec->key and meta-written memos.  A batch sweep never
#: notices, but the experiment daemon's workers are resident for
#: days, and an unbounded memo over every trace ever simulated is a
#: slow leak.  Flushed wholesale (like the H3 position memos): the
#: recompute cost is one content hash / one ``meta.json`` stat.
MAX_KEY_MEMO = 4096

#: Byte budgets behind the default chunk-count caps: the in-memory
#: LRU, and the shared-memory publish prefix of one trace.
MEM_BUDGET_BYTES = 128 << 20
SHM_PUBLISH_BUDGET_BYTES = 64 << 20

#: Publish-phase horizon over a job's instruction target: consumption
#: past the target depends on co-runners, so the shared prefix is sized
#: with slack and anything beyond it falls back to the layers below.
SHM_SLACK = 2.0

#: Telemetry counters (``TraceStore`` attributes) and their stats-tree
#: descriptions.
COUNTERS = {
    "mem_hits": "chunks served from the in-process LRU",
    "disk_hits": "chunks loaded from the on-disk store",
    "compiles": "chunks compiled from generators",
    "evictions": "chunks dropped by the LRU",
    "bytes_compiled": "bytes produced by the compile layer",
    "bytes_read": "bytes loaded from disk",
    "bytes_written": "bytes persisted to disk",
    "shm_hits": "chunks attached from shared-memory segments",
    "shm_misses": "shared-memory lookups that fell through",
    "shm_publishes": "segments published by this process",
    "shm_bytes": "bytes served zero-copy from shared memory",
}


def _positive(name: str, value) -> int:
    """``value`` as an int, checked positive; anything else raises one
    error naming ``name``."""
    try:
        parsed = int(value)
    except (TypeError, ValueError):
        parsed = 0
    if parsed < 1:
        raise ValueError(f"{name} must be a positive int, got {value!r}")
    return parsed


class TraceStore:
    """LRU + disk cache of compiled trace chunks."""

    def __init__(
        self, chunk_pairs: int = DEFAULT_CHUNK_PAIRS, max_chunks: int | None = None
    ):
        self.chunk_pairs = _positive("chunk_pairs", chunk_pairs)
        nbytes = chunk_nbytes(chunk_pairs)
        if max_chunks is None:
            self.max_chunks = max(1, MEM_BUDGET_BYTES // nbytes)
        else:
            self.max_chunks = _positive("max_chunks", max_chunks)
        self.shm_max_chunks = max(1, SHM_PUBLISH_BUDGET_BYTES // nbytes)
        self._chunks: OrderedDict[tuple[str, int], array] = OrderedDict()
        self._producers: OrderedDict[str, tuple] = OrderedDict()
        self._keys: dict[TraceSpec, str] = {}
        self._meta_written: set[str] = set()
        self._endian_checked: set[str] = set()
        # Telemetry counters (pulled by the harness stats tree).
        self.mem_hits = 0
        self.disk_hits = 0
        self.compiles = 0
        self.evictions = 0
        self.bytes_compiled = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.shm_hits = 0
        self.shm_misses = 0
        self.shm_publishes = 0
        self.shm_bytes = 0

    # -- keys and layout ------------------------------------------------

    def key_of(self, spec: TraceSpec) -> str:
        """``spec``'s store key (memoised; specs are frozen)."""
        key = self._keys.get(spec)
        if key is None:
            key = spec.key(self.chunk_pairs)
            if len(self._keys) >= MAX_KEY_MEMO:
                self._keys.clear()
            self._keys[spec] = key
        return key

    @staticmethod
    def disk_dir() -> Path | None:
        """The on-disk layer's directory (``REPRO_TRACE_CACHE``), or
        ``None`` when disabled; read on every call, so tests and the
        harness can repoint the layer without rebuilding stores."""
        return options.get("REPRO_TRACE_CACHE")

    def _trace_dir(self, key: str) -> Path | None:
        root = self.disk_dir()
        return root / key[:2] / key if root is not None else None

    def _chunk_path(self, key: str, index: int) -> Path | None:
        trace_dir = self._trace_dir(key)
        return trace_dir / f"{index:08d}.i64" if trace_dir is not None else None

    # -- layered lookup -------------------------------------------------

    def get_chunk(self, spec: TraceSpec, index: int):
        """The ``index``-th chunk of ``spec``'s stream (memory, then
        shared memory, then disk, then compile).

        Returns ``array('q')`` from the private layers or a
        ``memoryview('q')`` over a shared segment -- interchangeable
        for every consumer (list cursor, numpy view, ``tolist``) and
        bitwise-identical by the parity suite.
        """
        if index < 0:
            raise ValueError("chunk index must be non-negative")
        key = self.key_of(spec)
        mem_key = (key, index)
        chunk = self._chunks.get(mem_key)
        if chunk is not None:
            self.mem_hits += 1
            self._chunks.move_to_end(mem_key)
            return chunk
        if shm_enabled():
            view = get_pool().attach(key, index, self.chunk_pairs)
            if view is not None:
                self.shm_hits += 1
                self.shm_bytes += view.nbytes
                self._remember(mem_key, view)
                return view
            self.shm_misses += 1
        chunk = self._load_disk(key, index)
        if chunk is not None:
            self.disk_hits += 1
            self._remember(mem_key, chunk)
            return chunk
        return self._compile_through(spec, key, index)

    def chunk_list(self, spec: TraceSpec, index: int) -> tuple:
        """The chunk in the two forms the event loop reads, as
        ``(chunk, items)``: the stored buffer (``array('q')`` or a
        shared-memory ``memoryview('q')``, which index columns hash
        zero-copy) and a plain list (the cursor format: list indexing
        is the cheapest per-event read Python offers).

        The list is converted per call and never kept: ``tolist`` of
        one chunk costs microseconds, and the running core's cursor
        holds the only list copy.
        """
        chunk = self.get_chunk(spec, index)
        return chunk, chunk.tolist()

    # -- memory layer ---------------------------------------------------

    def _remember(self, mem_key: tuple[str, int], chunk: array) -> None:
        chunks = self._chunks
        chunks[mem_key] = chunk
        chunks.move_to_end(mem_key)
        while len(chunks) > self.max_chunks:
            chunks.popitem(last=False)
            self.evictions += 1

    # -- disk layer -----------------------------------------------------

    def _check_byte_order(self, key: str) -> None:
        """Refuse to touch a trace directory written on a host of the
        other endianness.

        Chunk files are native-order (``tofile``); a
        ``REPRO_TRACE_CACHE`` directory copied between hosts of
        different byte order would deserialize into byte-swapped
        gaps/addresses and silently corrupt every simulation, so the
        recorded order in ``meta.json`` is checked once per trace.
        Directories written before the field existed are accepted as
        native (they cannot have crossed endianness through this
        code).
        """
        if key in self._endian_checked:
            return
        trace_dir = self._trace_dir(key)
        if trace_dir is None:
            return
        try:
            meta = json.loads((trace_dir / "meta.json").read_text())
        except (OSError, json.JSONDecodeError):
            meta = {}
        order = meta.get("byte_order")
        if order is not None and order != sys.byteorder:
            raise RuntimeError(
                f"trace cache {trace_dir} was written on a {order}-endian "
                f"host but this host is {sys.byteorder}-endian; chunk files "
                "are native byte order and cannot be loaded here. Point "
                "REPRO_TRACE_CACHE at a fresh directory or run "
                "`repro traces --purge` on this host's copy."
            )
        if len(self._endian_checked) >= MAX_KEY_MEMO:
            self._endian_checked.clear()
        self._endian_checked.add(key)

    def _load_disk(self, key: str, index: int) -> array | None:
        path = self._chunk_path(key, index)
        if path is None:
            return None
        self._check_byte_order(key)
        expected = 2 * self.chunk_pairs
        buf = array("q")
        try:
            with path.open("rb") as fh:
                buf.fromfile(fh, expected)
        except FileNotFoundError:
            return None
        except (OSError, EOFError, ValueError):
            # Torn write or truncated file (``fromfile`` raises
            # ``ValueError`` on a partial trailing item): drop it.
            path.unlink(missing_ok=True)
            return None
        self.bytes_read += buf.itemsize * expected
        return buf

    def _store_disk(self, spec: TraceSpec, key: str, index: int, chunk) -> None:
        path = self._chunk_path(key, index)
        if path is None:
            return
        # Writing native-order chunks into a foreign-order directory
        # would leave it inconsistent; refuse before touching it.
        self._check_byte_order(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                chunk.tofile(fh)
            os.replace(tmp, path)
            self.bytes_written += chunk.itemsize * len(chunk)
            if key not in self._meta_written:
                if len(self._meta_written) >= MAX_KEY_MEMO:
                    self._meta_written.clear()
                self._meta_written.add(key)
                meta = path.parent / "meta.json"
                if not meta.exists():
                    meta.write_text(
                        json.dumps(
                            {
                                **spec.describe(),
                                "chunk_pairs": self.chunk_pairs,
                                "byte_order": sys.byteorder,
                            },
                            indent=2,
                            sort_keys=True,
                        )
                        + "\n"
                    )
        except OSError:
            # A full or read-only disk must not fail the simulation.
            pass

    # -- compile layer --------------------------------------------------

    def _compile_through(self, spec: TraceSpec, key: str, index: int) -> array:
        """Compile chunks up to and including ``index``, remembering
        every chunk produced on the way."""
        producer = self._producers.pop(key, None)
        if producer is None or producer[1] > index:
            producer = (spec.generator(), 0)
        iterator, next_index = producer
        chunk_pairs = self.chunk_pairs
        chunk = None
        while next_index <= index:
            chunk = compile_chunk(iterator, chunk_pairs)
            self.compiles += 1
            self.bytes_compiled += chunk.itemsize * len(chunk)
            self._remember((key, next_index), chunk)
            self._store_disk(spec, key, next_index, chunk)
            next_index += 1
        producers = self._producers
        producers[key] = (iterator, next_index)
        while len(producers) > MAX_PRODUCERS:
            producers.popitem(last=False)
        return chunk

    # -- shared-memory layer (owner side) -------------------------------

    def publish_prefix(
        self,
        spec: TraceSpec,
        instructions: int,
        *,
        slack: float = SHM_SLACK,
        max_chunks: int | None = None,
    ) -> int:
        """Publish ``spec``'s chunk prefix into the shared fabric.

        The owner side of ``REPRO_TRACE_SHM``: the ``run_jobs`` parent
        and the service daemon call this once per distinct trace so
        every worker attaches instead of compiling.  How many chunks a
        job of ``instructions`` consumes is not exactly knowable
        up-front (cores run past their target until all finish), so
        the prefix covers ``slack``-times the target, capped at
        ``max_chunks``; consumers past the horizon fall back to the
        layers below.  Published chunks are dropped from this store's
        private LRU so all consumers -- including workers forked from
        this process -- resolve them through the fabric.

        Returns the number of segments this call created (0 when the
        fabric is disabled or another publisher got there first).
        """
        if not shm_enabled():
            return 0
        if max_chunks is None:
            max_chunks = self.shm_max_chunks
        pool = get_pool()
        key = self.key_of(spec)
        target = instructions * slack
        covered = 0
        created = 0
        for index in range(max_chunks):
            if covered >= target:
                break
            chunk = self.get_chunk(spec, index)
            if not isinstance(chunk, memoryview):
                view, fresh = pool.publish(key, index, chunk, self.chunk_pairs)
                if view is None:
                    # Fabric unavailable (full /dev/shm, torn racer):
                    # stop publishing; sims still work off lower layers.
                    break
                if fresh:
                    created += 1
                    self.shm_publishes += 1
                self._chunks.pop((key, index), None)
            covered += chunk_instructions(chunk)
        return created

    # -- inspection / maintenance ---------------------------------------

    def counters(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in COUNTERS}

    def register_stats(self, group) -> None:
        """Register the store's counters into a stats tree group."""
        for name, desc in COUNTERS.items():
            group.stat(name, lambda name=name: getattr(self, name), desc)

    @classmethod
    def list_disk(cls) -> list[dict]:
        """Inventory of the on-disk store, one row per trace."""
        root = cls.disk_dir()
        if root is None or not root.is_dir():
            return []
        rows = []
        for trace_dir in sorted(root.glob("??/*")):
            if not trace_dir.is_dir():
                continue
            chunk_files = sorted(trace_dir.glob("*.i64"))
            meta_path = trace_dir / "meta.json"
            meta = {}
            if meta_path.exists():
                try:
                    meta = json.loads(meta_path.read_text())
                except (OSError, json.JSONDecodeError):
                    meta = {}
            rows.append(
                {
                    "key": trace_dir.name,
                    "chunks": len(chunk_files),
                    "bytes": sum(p.stat().st_size for p in chunk_files),
                    **{
                        k: meta[k]
                        for k in ("name", "kind", "base", "seed", "chunk_pairs")
                        if k in meta
                    },
                }
            )
        return rows

    @classmethod
    def purge_disk(cls) -> int:
        """Delete every on-disk trace; returns the number removed."""
        root = cls.disk_dir()
        if root is None or not root.is_dir():
            return 0
        removed = 0
        for trace_dir in root.glob("??/*"):
            if not trace_dir.is_dir():
                continue
            for path in trace_dir.iterdir():
                path.unlink(missing_ok=True)
            trace_dir.rmdir()
            removed += 1
        for fanout in root.glob("??"):
            try:
                fanout.rmdir()
            except OSError:
                pass
        return removed


_STORE: TraceStore | None = None


def get_store() -> TraceStore:
    """The process-wide trace store (created on first use)."""
    global _STORE
    if _STORE is None:
        _STORE = TraceStore()
    return _STORE


def reset_store(chunk_pairs: int = DEFAULT_CHUNK_PAIRS) -> TraceStore:
    """Replace the process-wide store (tests; ``chunk_pairs`` overrides
    the chunk size of the new store)."""
    global _STORE
    _STORE = TraceStore(chunk_pairs=chunk_pairs)
    return _STORE
