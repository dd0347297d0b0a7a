"""Keyed trace store: in-process LRU over compiled chunks, with an
optional shared chunk-file layer seen by every process on the host.

Chunks are keyed by ``(TraceSpec.key(chunk_pairs), chunk_index)`` --
that is, by app name + parameters + address base + seed + chunking +
the generator-source fingerprint -- so every simulation of the same
mix (any scheme, any process) replays the same compiled buffers
instead of re-running the Python generators item by item.

Layers, cheapest first:

1. **memory**: an LRU of at most ``max_chunks`` buffers (default
   128 MiB worth of chunks), from which a sweep's pool worker also
   retires every trace the rest of its sweep does not read
   (:meth:`TraceStore.retain`);
2. **shared**: chunk files under one root, mapped read-only with
   :mod:`mmap` and served as ``memoryview('q')``, so every process
   reading a chunk shares the same page-cache pages.  The root is
   ``REPRO_TRACE_CACHE`` when set (persistent; compiled chunks are
   written through), else :data:`SHM_ROOT` when ``REPRO_TRACE_SHM=1``
   and ``/dev/shm`` exists (volatile; only sweep owners write it, with
   :meth:`TraceStore.publish_prefix`, and remove what they created
   when they stop), else there is no shared layer;
3. **compile**: pull pairs from the spec's generator.  Each trace
   keeps a *producer* (its live generator plus the next chunk index)
   so sequential requests never regenerate the prefix; a request
   behind an evicted producer restarts the generator from item zero,
   which is always correct because the streams are deterministic.

Layout under a root: ``<key[:2]>/<key>/<index:08d>.i64`` files of
native-order int64s plus a ``meta.json`` per trace (its spec, chunking
and byte order, checked on load; on the ``/dev/shm`` root also the pid
of the process that created the directory).  Every file and directory
appears under its final name only through ``os.replace``/``os.rename``
of a temp name that starts with ``.<pid>-``, so no reader sees half a
file; DESIGN.md section 12 has the ownership and scavenging rules.

Chunks are ``DEFAULT_CHUNK_PAIRS`` pairs; the chunk-count caps
default to fixed byte budgets, so the chunk size never changes how
much memory they bound.  Knobs (``REPRO_TRACE_CACHE``,
``REPRO_TRACE_SHM``): see :mod:`repro.options`.
"""

from __future__ import annotations

import atexit
import json
import mmap
import os
import shutil
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
from repro.traces.spec import TraceSpec

#: Producers kept alive per store.  A loop/scan producer holds a few
#: KiB; a Zipf producer adds its rank-to-line map at 8 B per
#: working-set line (320 KiB for the largest app, 40,960 lines), so
#: the worst case here is about 40 MiB.  Its CDF and guide table (8 B
#: per line each) are shared by every producer with the same
#: parameters and bounded separately, see ``generators.zipf_cdf``.
#: This only bounds the daemon's resident workers and inline sweeps
#: over many distinct traces: a ``run_jobs`` pool worker drops the
#: producers (and chunks) of every trace the rest of its sweep does
#: not read (:meth:`TraceStore.retain`), so it holds one or two
#: mixes' worth, not one per mix it has simulated.
MAX_PRODUCERS = 128

#: Cap on the spec->key and byte-order-checked memos.  A batch sweep
#: never notices, but the experiment daemon's workers are resident for
#: days, and an unbounded memo over every trace ever simulated is a
#: slow leak.  Flushed wholesale (like the H3 position memos): the
#: recompute cost is one content hash / one ``meta.json`` read.
MAX_KEY_MEMO = 4096

#: Byte budgets behind the default chunk-count caps: the in-memory
#: LRU, and the published prefix of one trace.
MEM_BUDGET_BYTES = 128 << 20
SHM_PUBLISH_BUDGET_BYTES = 64 << 20

#: Publish-phase horizon over a job's instruction target: consumption
#: past the target depends on co-runners, so the shared prefix is sized
#: with slack and anything beyond it falls back to the layers below.
SHM_SLACK = 2.0

#: The volatile shared root (``REPRO_TRACE_SHM=1``), on the host's
#: shared-memory tmpfs.
SHM_ROOT = Path("/dev/shm/repro_trc")

#: Telemetry counters (``TraceStore`` attributes) and their stats-tree
#: descriptions.
COUNTERS = {
    "mem_hits": "chunks served from the in-process LRU",
    "disk_hits": "chunks mapped from the REPRO_TRACE_CACHE directory",
    "compiles": "chunks compiled from generators",
    "evictions": "chunks dropped by the LRU",
    "retired": "chunks dropped because the sweep no longer reads their trace",
    "bytes_compiled": "bytes produced by the compile layer",
    "bytes_read": "bytes mapped from the REPRO_TRACE_CACHE directory",
    "bytes_written": "bytes written to the shared chunk layer",
    "shm_hits": "chunks mapped from the /dev/shm root",
    "shm_misses": "/dev/shm root lookups that fell through",
    "shm_publishes": "chunk files published by this process",
    "shm_bytes": "bytes mapped from the /dev/shm root",
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


# -- the shared layer's root ------------------------------------------


def shm_enabled() -> bool:
    """Is ``REPRO_TRACE_SHM`` on? (read per call, so tests and the
    harness can flip it without rebuilding stores)."""
    return options.get("REPRO_TRACE_SHM")


def shm_root() -> Path | None:
    """:data:`SHM_ROOT`, or ``None`` on a host without ``/dev/shm``."""
    return SHM_ROOT if SHM_ROOT.parent.is_dir() else None


def shared_root() -> tuple[Path, bool] | None:
    """The shared layer's root and whether it is the volatile
    ``/dev/shm`` one, or ``None`` when there is no shared layer."""
    root = options.get("REPRO_TRACE_CACHE")
    if root is not None:
        return root, False
    if shm_enabled():
        root = shm_root()
        if root is not None:
            return root, True
    return None


def _chunk_name(index: int) -> str:
    return f"{index:08d}.i64"


def _temp_pid(name: str) -> int | None:
    """The pid in a temp name (``.<pid>-...``); ``None`` for any other
    name."""
    if name.startswith("."):
        head = name[1:].split("-", 1)[0]
        if head.isdigit():
            return int(head)
    return None


def _write_atomic(path: Path, data) -> None:
    """Write ``data`` (any bytes-like) to ``path`` through a temp file
    in the same directory and ``os.replace``: readers see the old file,
    no file or the whole new one, never a part."""
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{os.getpid()}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _read_meta(trace_dir: Path) -> dict | None:
    """``trace_dir``'s ``meta.json``, or ``None`` when it is missing or
    does not parse."""
    try:
        meta = json.loads((trace_dir / "meta.json").read_text())
    except (OSError, ValueError):
        return None
    return meta if isinstance(meta, dict) else None


def _verify_byte_order(trace_dir: Path, meta: dict | None) -> None:
    """Refuse a trace directory written on a host of the other
    endianness.

    Chunk files are native-order; a ``REPRO_TRACE_CACHE`` directory
    copied between hosts of different byte order would map as
    byte-swapped gaps/addresses and silently corrupt every simulation.
    Directories whose meta lacks the field are accepted as native (they
    cannot have crossed endianness through this code).
    """
    order = (meta or {}).get("byte_order")
    if order is not None and order != sys.byteorder:
        raise RuntimeError(
            f"trace cache {trace_dir} was written on a {order}-endian "
            f"host but this host is {sys.byteorder}-endian; chunk files "
            "are native byte order and cannot be loaded here. Point "
            "REPRO_TRACE_CACHE at a fresh directory or run "
            "`repro traces --purge` on this host's copy."
        )


# -- ownership of the /dev/shm root -----------------------------------

#: Trace directories created on the ``/dev/shm`` root by this process
#: (or, after a fork, by its parent), with the creating pid.
_OWNED: dict[Path, int] = {}


def release_shared() -> int:
    """Remove the ``/dev/shm`` trace directories this process created.

    Runs at exit (a pid-guarded ``atexit`` hook, so a forked worker
    never removes its parent's directories), from
    ``ExperimentDaemon.stop``, and on explicit call.  Existing
    mappings stay valid; new lookups miss and fall back to compiling.
    Returns the number of directories removed.
    """
    pid = os.getpid()
    # list() copies in one step: a publish thread may still be adding.
    mine = [path for path, owner in list(_OWNED.items()) if owner == pid]
    for path in mine:
        del _OWNED[path]
        shutil.rmtree(path, ignore_errors=True)
    if mine:
        _prune(SHM_ROOT)
    return len(mine)


atexit.register(release_shared)


def _prune(root: Path) -> None:
    """Remove ``root``'s empty fan-out directories, and ``root`` itself
    when nothing is left."""
    for path in [*root.glob("??"), root]:
        try:
            path.rmdir()
        except OSError:
            pass


def _pid_alive(pid) -> bool:
    if not isinstance(pid, int) or pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


def _remove(path: Path) -> bool:
    try:
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()
    except OSError:
        return False
    return True


def scavenge(force: bool = False) -> int:
    """Remove what dead processes left on the ``/dev/shm`` root.

    A trace directory goes when the pid in its ``meta.json`` is dead, a
    temp file or directory when the pid in its name is; a live pid's
    files are never touched, so concurrent sweeps cannot scavenge each
    other.  ``force`` removes live ones too (``repro traces --purge
    --force``; their readers keep their mappings and fall back to
    compiling).  Runs before each publish phase and from ``repro
    traces --purge``.  Returns the number of entries removed.
    """
    root = shm_root()
    if root is None or not root.is_dir():
        return 0
    removed = 0
    for entry in sorted(root.glob("??/*")):
        pid = _temp_pid(entry.name)
        if pid is None:
            pid = (_read_meta(entry) or {}).get("pid")
            if not force and _pid_alive(pid):
                # A live owner's directory can still hold the temp file
                # of some other, dead, writer.
                for tmp in entry.glob(".*"):
                    if not _pid_alive(_temp_pid(tmp.name)):
                        removed += _remove(tmp)
                continue
        elif not force and _pid_alive(pid):
            continue
        removed += _remove(entry)
    _prune(root)
    return removed


def list_traces(root: Path | None) -> list[dict]:
    """Inventory of the chunk files under ``root``, one row per trace
    (with ``pid`` and ``alive`` where ``meta.json`` records an owner)."""
    if root is None or not root.is_dir():
        return []
    rows = []
    for trace_dir in sorted(root.glob("??/*")):
        if _temp_pid(trace_dir.name) is not None or not trace_dir.is_dir():
            continue
        chunk_files = sorted(trace_dir.glob("*.i64"))
        meta = _read_meta(trace_dir) or {}
        rows.append(
            {
                "key": trace_dir.name,
                "chunks": len(chunk_files),
                "bytes": sum(p.stat().st_size for p in chunk_files),
                **{
                    k: meta[k]
                    for k in ("name", "kind", "base", "seed", "chunk_pairs", "pid")
                    if k in meta
                },
            }
        )
        if "pid" in meta:
            rows[-1]["alive"] = _pid_alive(meta["pid"])
    return rows


class TraceStore:
    """LRU over compiled trace chunks, above the shared chunk layer."""

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
        self._endian_checked: set[Path] = set()
        # Telemetry counters (pulled by the harness stats tree).
        self.mem_hits = 0
        self.disk_hits = 0
        self.compiles = 0
        self.evictions = 0
        self.retired = 0
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
        """The persistent root (``REPRO_TRACE_CACHE``), or ``None``;
        read on every call, so tests and the harness can repoint the
        layer without rebuilding stores."""
        return options.get("REPRO_TRACE_CACHE")

    # -- layered lookup -------------------------------------------------

    def get_chunk(self, spec: TraceSpec, index: int):
        """The ``index``-th chunk of ``spec``'s stream (memory, then the
        shared layer, then compile).

        Returns ``array('q')`` from the compile layer or a
        ``memoryview('q')`` over a mapped chunk file -- interchangeable
        for every consumer (the chunk cursor, numpy view, ``tolist``)
        and bitwise-identical by the parity suite.
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
        persist = None
        shared = shared_root()
        if shared is not None:
            root, volatile = shared
            view = self._map(root / key[:2] / key, index)
            if view is not None:
                if volatile:
                    self.shm_hits += 1
                    self.shm_bytes += view.nbytes
                else:
                    self.disk_hits += 1
                    self.bytes_read += view.nbytes
                self._remember(mem_key, view)
                return view
            if volatile:
                self.shm_misses += 1
            else:
                persist = root
        return self._compile_through(spec, key, index, persist)

    def chunk_list(self, spec: TraceSpec, index: int):
        """The chunk the event loop's cursor reads, in place: the stored
        buffer itself (``array('q')`` or a mapped ``memoryview('q')``),
        which the index columns also hash zero-copy.

        The refill path's one store call (:meth:`get_chunk` plus
        nothing else, so a profiler wrapping it times exactly the
        cursor's lookups).  Reading the buffer by index boxes each
        address as the cursor reaches it; a ``tolist`` copy would keep
        a whole chunk of boxed ints alive per core instead.
        """
        return self.get_chunk(spec, index)

    # -- memory layer ---------------------------------------------------

    def _remember(self, mem_key: tuple[str, int], chunk) -> None:
        # A mapped view evicted here is unmapped once its last user
        # drops it, so ``max_chunks`` also bounds this process's
        # mappings.
        chunks = self._chunks
        chunks[mem_key] = chunk
        chunks.move_to_end(mem_key)
        while len(chunks) > self.max_chunks:
            chunks.popitem(last=False)
            self.evictions += 1

    def retain(self, keys) -> int:
        """Drop the chunks and producers of every trace whose key is
        not in ``keys``; returns the number of chunks dropped.

        A sweep's pool worker calls this between jobs with the keys of
        every trace its next job or a still-queued job of the sweep
        reads: the rest will never be read again by that worker, so
        its memory follows the mixes in flight instead of every mix it
        has simulated.  A dropped trace read anyway is recompiled
        from item zero, bitwise-identical.
        """
        keys = frozenset(keys)
        chunks = self._chunks
        dropped = [mem_key for mem_key in chunks if mem_key[0] not in keys]
        for mem_key in dropped:
            del chunks[mem_key]
        producers = self._producers
        for key in [key for key in producers if key not in keys]:
            del producers[key]
        self.retired += len(dropped)
        return len(dropped)

    # -- shared layer ---------------------------------------------------

    def _check_byte_order(self, trace_dir: Path) -> None:
        """:func:`_verify_byte_order` once per trace directory."""
        if trace_dir in self._endian_checked:
            return
        _verify_byte_order(trace_dir, _read_meta(trace_dir))
        if len(self._endian_checked) >= MAX_KEY_MEMO:
            self._endian_checked.clear()
        self._endian_checked.add(trace_dir)

    def _map(self, trace_dir: Path, index: int) -> memoryview | None:
        """Chunk ``index`` of ``trace_dir`` mapped read-only, or
        ``None`` on a miss."""
        self._check_byte_order(trace_dir)
        path = trace_dir / _chunk_name(index)
        nbytes = chunk_nbytes(self.chunk_pairs)
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return None
        try:
            if os.fstat(fd).st_size < nbytes:
                # Damaged (files only appear whole, through os.replace):
                # drop the name and recompile.  Never truncate or
                # rewrite a chunk file in place -- a mapped file that
                # shrinks raises SIGBUS in every process mapping it.
                path.unlink(missing_ok=True)
                return None
            mapping = mmap.mmap(fd, nbytes, access=mmap.ACCESS_READ)
        except (OSError, ValueError):
            return None
        finally:
            os.close(fd)
        return memoryview(mapping).cast("q")

    def _store(
        self, root: Path, volatile: bool, spec: TraceSpec, key: str, index: int, chunk
    ) -> bool:
        """Write ``chunk`` as chunk ``index`` of ``spec`` under ``root``;
        ``False`` when the root refuses it (full, read-only), which
        must never fail a simulation."""
        trace_dir = root / key[:2] / key
        try:
            meta = _read_meta(trace_dir)
            if meta is None:
                self._write_meta(trace_dir, volatile, spec)
            else:
                # Writing native-order chunks into a foreign-order
                # directory would leave it inconsistent.
                _verify_byte_order(trace_dir, meta)
            _write_atomic(trace_dir / _chunk_name(index), chunk)
        except OSError:
            return False
        self.bytes_written += chunk_nbytes(self.chunk_pairs)
        return True

    def _write_meta(self, trace_dir: Path, volatile: bool, spec: TraceSpec) -> None:
        """Give ``trace_dir`` a ``meta.json``: create the directory with
        it (first creator wins; on the ``/dev/shm`` root the winner owns
        the directory), or replace a missing or torn one."""
        fields = {
            **spec.describe(),
            "chunk_pairs": self.chunk_pairs,
            "byte_order": sys.byteorder,
        }
        if volatile:
            fields["pid"] = os.getpid()
        data = (json.dumps(fields, indent=2, sort_keys=True) + "\n").encode()
        if trace_dir.is_dir():
            _write_atomic(trace_dir / "meta.json", data)
            return
        trace_dir.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(dir=trace_dir.parent, prefix=f".{os.getpid()}-"))
        try:
            (tmp / "meta.json").write_bytes(data)
            os.rename(tmp, trace_dir)
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)
            if trace_dir.is_dir():
                return  # another creator won
            raise
        if volatile:
            _OWNED[trace_dir] = os.getpid()

    # -- compile layer --------------------------------------------------

    def _compile_through(
        self, spec: TraceSpec, key: str, index: int, persist: Path | None
    ) -> array:
        """Compile chunks up to and including ``index``, remembering
        every chunk produced on the way (and writing it under
        ``persist``, the ``REPRO_TRACE_CACHE`` root, when set)."""
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
            if persist is not None:
                self._store(persist, False, spec, key, next_index, chunk)
            next_index += 1
        producers = self._producers
        producers[key] = (iterator, next_index)
        while len(producers) > MAX_PRODUCERS:
            producers.popitem(last=False)
        return chunk

    # -- publishing (owner side) ----------------------------------------

    def publish_prefix(
        self,
        spec: TraceSpec,
        instructions: int,
        *,
        slack: float = SHM_SLACK,
        max_chunks: int | None = None,
    ) -> int:
        """Write ``spec``'s chunk prefix into the shared layer.

        The owner side of ``REPRO_TRACE_SHM``: the worker pool's process
        (``run_jobs`` parent, service daemon) calls this once per
        distinct trace so every worker maps instead of compiling.  How
        many chunks a job of ``instructions`` consumes is not exactly
        knowable up-front (cores run past their target until all
        finish), so the prefix covers ``slack``-times the target,
        capped at ``max_chunks``; consumers past the horizon fall back
        to the layers below.  Published chunks are dropped from this
        store's private LRU so all consumers -- including workers forked
        from this process -- resolve them through the shared layer.

        Returns the number of chunk files this call created (0 when
        ``REPRO_TRACE_SHM`` is off or there is no shared root).
        """
        shared = shared_root() if shm_enabled() else None
        if shared is None:
            return 0
        root, volatile = shared
        if max_chunks is None:
            max_chunks = self.shm_max_chunks
        key = self.key_of(spec)
        trace_dir = root / key[:2] / key
        target = instructions * slack
        covered = 0
        created = 0
        for index in range(max_chunks):
            if covered >= target:
                break
            # Shared or not is decided by the layer (is the file
            # there?), not by the chunk's type: a mapped chunk from
            # this root and one from memory look alike.
            path = trace_dir / _chunk_name(index)
            fresh = not path.exists()
            chunk = self.get_chunk(spec, index)
            if not path.exists() and not self._store(
                root, volatile, spec, key, index, chunk
            ):
                # Root full or read-only: stop publishing; sims still
                # work off the private layers.
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
        """Inventory of the ``REPRO_TRACE_CACHE`` root, one row per
        trace."""
        return list_traces(cls.disk_dir())

    @classmethod
    def purge_disk(cls) -> int:
        """Delete every trace under the ``REPRO_TRACE_CACHE`` root;
        returns the number removed."""
        root = cls.disk_dir()
        removed = len(list_traces(root))
        for fanout in root.glob("??") if root is not None else ():
            shutil.rmtree(fanout, ignore_errors=True)
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
