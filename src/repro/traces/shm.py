"""Zero-copy shared-memory trace fabric (``REPRO_TRACE_SHM=1``).

:class:`SharedChunkPool` publishes each compiled trace chunk once into
a named shared-memory segment, content-keyed like the trace store's
``(TraceSpec.key, chunk index)``, and every other process on the host
maps the same pages zero-copy (``memoryview.cast('q')``) instead of
compiling a private ``array('q')`` copy -- bitwise-identical, which the
parity suite asserts.  Segments are ``O_EXCL`` files on ``/dev/shm``
mapped with :mod:`mmap` (not ``multiprocessing.shared_memory``, whose
resource tracker breaks across a fork tree); without ``/dev/shm`` the
fabric disables itself.

Segment layout::

    offset   0: int64 magic      (SEGMENT_MAGIC)
    offset   8: int64 version    (SEGMENT_VERSION)
    offset  16: int64 chunk_pairs
    offset  24: int64 payload items (2 * chunk_pairs)
    offset  32: int64 publisher pid
    offset  40: int64 seal       (0 while publishing, 1 once complete)
    offset  48: 16 bytes reserved
    offset  64: payload (interleaved gap/addr int64 pairs)

DESIGN.md section 12 covers the rest: seal-last publishing (an
unsealed segment is torn and never served), first-creator-wins
races, and ownership -- the creator unlinks at exit (a pid-guarded
``atexit`` hook) or on :meth:`SharedChunkPool.close`, and
:meth:`SharedChunkPool.scavenge` reclaims segments of dead publishers
before every publish phase.
"""

from __future__ import annotations

import atexit
import mmap
import os
import struct
from collections import OrderedDict
from pathlib import Path

from repro import options
from repro.traces.chunks import DEFAULT_CHUNK_PAIRS, chunk_nbytes

#: Prefix of every segment name this module creates (visible under
#: ``/dev/shm``; ``repro traces --list`` enumerates them).
SEGMENT_PREFIX = "repro_trc_"

#: First header word; any other value means "not one of our segments".
SEGMENT_MAGIC = int.from_bytes(b"RPTRCSHM", "little")

#: Bump when the header or payload layout changes.
SEGMENT_VERSION = 1

#: Header size in bytes (8 int64 slots; payload stays 64-byte aligned).
HEADER_BYTES = 64
_HEADER_FMT = "<8q"

#: Non-owned attachments kept mapped per process (512 MiB of chunks).
#: Resident daemon workers attach lazily and would otherwise
#: accumulate one mapping per chunk ever simulated; beyond the cap the
#: oldest attachment is dropped best-effort (skipped while its buffer
#: is still exported) and simply re-attached on next use.
MAX_ATTACHED = (512 << 20) // chunk_nbytes(DEFAULT_CHUNK_PAIRS)

_ITEMSIZE = 8


def shm_enabled() -> bool:
    """Is the shared-memory trace fabric requested? (read per call so
    tests and the harness can flip it without rebuilding stores)."""
    return options.get("REPRO_TRACE_SHM")


def segment_name(key: str, index: int) -> str:
    """Segment name for chunk ``index`` of the trace named ``key``.

    20 hex chars of the store's sha256 content key keep names far
    under ``NAME_MAX`` while making cross-trace collisions
    negligible; the key already folds in chunking and generator
    fingerprints, so equal names imply equal payloads.
    """
    return f"{SEGMENT_PREFIX}{key[:20]}_{index:06d}"


def shm_dir() -> Path | None:
    """The shared-memory tmpfs, or ``None`` when the platform has
    none (the fabric is then disabled and every consumer falls back
    to the private layers)."""
    path = Path("/dev/shm")
    return path if path.is_dir() else None


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
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


class _Segment:
    """One mapped segment: the mapping, its canonical int64 payload
    view, and the bookkeeping the unlink protocol needs."""

    __slots__ = ("map", "view", "owned", "unlinked")

    def __init__(self, mapping, view, owned: bool):
        self.map = mapping
        self.view = view
        self.owned = owned
        self.unlinked = False


class SharedChunkPool:
    """Process-local registry of attached/published chunk segments.

    One pool per process (see :func:`get_pool`); every
    :class:`~repro.traces.store.TraceStore` in the process shares it,
    so a segment is mapped at most once no matter how many stores or
    sweeps touch it.  All methods are best-effort: any OS-level
    failure (exhausted ``/dev/shm``, permissions, an unsupported
    platform) degrades to "not shared", never to a failed simulation.
    """

    def __init__(self):
        self._segments: OrderedDict[str, _Segment] = OrderedDict()
        self._attached = 0  # non-owned entries of ``_segments``
        self._atexit_pid: int | None = None
        self.publishes = 0
        self.errors = 0

    # -- mapping ------------------------------------------------------

    @staticmethod
    def _payload_view(mapping, items: int):
        return memoryview(mapping)[
            HEADER_BYTES : HEADER_BYTES + items * _ITEMSIZE
        ].cast("q")

    def attach(self, key: str, index: int, chunk_pairs: int):
        """Map chunk ``(key, index)`` if a sealed segment exists.

        Returns the payload as a ``memoryview('q')`` -- a drop-in for
        the private ``array('q')`` chunks (``tolist``, the buffer
        protocol, indexing and slicing all behave identically) -- or
        ``None`` on a miss.
        """
        name = segment_name(key, index)
        seg = self._segments.get(name)
        if seg is not None:
            if seg.unlinked:
                return None
            self._segments.move_to_end(name)
            return seg.view
        root = shm_dir()
        if root is None:
            return None
        items = 2 * chunk_pairs
        size = HEADER_BYTES + items * _ITEMSIZE
        try:
            fd = os.open(root / name, os.O_RDWR)
        except FileNotFoundError:
            return None
        except OSError:
            self.errors += 1
            return None
        try:
            if os.fstat(fd).st_size < size:
                return None
            mapping = mmap.mmap(fd, size)
        except (OSError, ValueError):
            self.errors += 1
            return None
        finally:
            os.close(fd)
        header = struct.unpack(_HEADER_FMT, mapping[:HEADER_BYTES])
        if (
            header[0] != SEGMENT_MAGIC
            or header[1] != SEGMENT_VERSION
            or header[2] != chunk_pairs
            or header[3] != items
            or header[5] != 1
        ):
            # Torn, foreign, or mismatched segment: never serve it.
            # The scavenger decides whether it can be removed.
            mapping.close()
            return None
        seg = _Segment(mapping, self._payload_view(mapping, items), owned=False)
        self._remember(name, seg)
        self._ensure_atexit()
        return seg.view

    def publish(self, key: str, index: int, buf, chunk_pairs: int):
        """Publish ``buf`` (any int64 buffer of ``2 * chunk_pairs``
        items) as chunk ``(key, index)``.

        Returns ``(view, fresh)``: the shared payload view to use in
        place of the private buffer and whether this call created the
        segment, or ``(None, False)`` when publishing is impossible
        (lost race against a still-copying publisher, OS failure).
        """
        name = segment_name(key, index)
        seg = self._segments.get(name)
        if seg is not None and not seg.unlinked:
            return seg.view, False
        items = 2 * chunk_pairs
        if len(buf) != items:
            raise ValueError(
                f"chunk {key[:10]}.../{index} has {len(buf)} items, "
                f"expected {items}"
            )
        root = shm_dir()
        if root is None:
            return None, False
        size = HEADER_BYTES + items * _ITEMSIZE
        try:
            fd = os.open(root / name, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
        except FileExistsError:
            return self.attach(key, index, chunk_pairs), False
        except OSError:
            self.errors += 1
            return None, False
        try:
            os.ftruncate(fd, size)
            mapping = mmap.mmap(fd, size)
        except (OSError, ValueError):
            self.errors += 1
            try:
                os.close(fd)
                os.unlink(root / name)
            except OSError:
                pass
            return None, False
        os.close(fd)
        view = self._payload_view(mapping, items)
        view[:] = buf if isinstance(buf, memoryview) else memoryview(buf)
        # The seal word is written strictly after the payload: a
        # reader that sees seal == 1 sees a complete chunk.
        mapping[:HEADER_BYTES] = struct.pack(
            _HEADER_FMT,
            SEGMENT_MAGIC,
            SEGMENT_VERSION,
            chunk_pairs,
            items,
            os.getpid(),
            0,
            0,
            0,
        )
        mapping[40:48] = struct.pack("<q", 1)
        seg = _Segment(mapping, view, owned=True)
        self._remember(name, seg)
        self._ensure_atexit()
        self.publishes += 1
        return view, True

    def is_published(self, key: str, index: int) -> bool:
        seg = self._segments.get(segment_name(key, index))
        return seg is not None and not seg.unlinked

    def _remember(self, name: str, seg: _Segment) -> None:
        self._segments[name] = seg
        self._segments.move_to_end(name)
        if not seg.owned:
            self._attached += 1
        if self._attached <= MAX_ATTACHED:
            return
        for evict_name, evict in list(self._segments.items()):
            if self._attached <= MAX_ATTACHED:
                break
            if not evict.owned and evict_name != name:
                self._drop(evict_name, evict)

    def _drop(self, name: str, seg: _Segment) -> bool:
        """Release and close one mapping; False when its payload view
        is still exported (kept and retried on a later eviction)."""
        try:
            seg.view.release()
        except BufferError:
            return False
        if self._segments.pop(name, None) is not None and not seg.owned:
            self._attached -= 1
        try:
            seg.map.close()
        except BufferError:
            # Some other buffer over the mapping is still exported;
            # it is closed when that export dies.
            pass
        return True

    # -- lifecycle ----------------------------------------------------

    def owned_names(self) -> list[str]:
        return [
            name
            for name, seg in self._segments.items()
            if seg.owned and not seg.unlinked
        ]

    def unlink_owned(self) -> int:
        """Unlink every segment this process published.

        Mappings (ours and other processes') stay valid; only the
        names disappear, so new attaches miss and fall back.  Returns
        the number of names removed.
        """
        root = shm_dir()
        removed = 0
        for name, seg in self._segments.items():
            if not seg.owned or seg.unlinked:
                continue
            seg.unlinked = True
            if root is None:
                continue
            try:
                os.unlink(root / name)
            except FileNotFoundError:
                pass
            except OSError:
                self.errors += 1
                continue
            removed += 1
        return removed

    def close(self, unlink: bool = True) -> None:
        """Shut the pool down: unlink owned names (when ``unlink``)
        and close every mapping whose buffer is no longer exported.
        Mappings still referenced (a live memoryview in some LRU) are
        left for process exit to reclaim -- closing them would raise
        ``BufferError`` mid-simulation."""
        if unlink:
            self.unlink_owned()
        for name, seg in list(self._segments.items()):
            self._drop(name, seg)

    def _ensure_atexit(self) -> None:
        if self._atexit_pid is None:
            self._atexit_pid = os.getpid()
            atexit.register(self._atexit_cleanup)

    def _atexit_cleanup(self) -> None:
        # Forked children inherit this hook with the registry; the pid
        # guard keeps a worker's exit from unlinking segments the
        # parent (and its siblings) still serve.
        if self._atexit_pid == os.getpid():
            self.unlink_owned()
        for seg in self._segments.values():
            try:
                seg.view.release()
                seg.map.close()
            except Exception:
                # Still exported somewhere teardown has not reached;
                # the OS reclaims the mapping at process exit.
                pass
        self._segments.clear()
        self._attached = 0

    # -- host-wide inspection / maintenance ---------------------------

    @staticmethod
    def _peek(path: Path) -> dict | None:
        """Header of the segment at ``path``, without mapping it."""
        try:
            size = path.stat().st_size
            with path.open("rb") as fh:
                raw = fh.read(HEADER_BYTES)
        except OSError:
            return None
        if len(raw) < HEADER_BYTES:
            header = (0,) * 8
        else:
            header = struct.unpack(_HEADER_FMT, raw)
        if header[0] != SEGMENT_MAGIC:
            # Created but not yet (or never) headered: torn.
            return {
                "name": path.name,
                "version": 0,
                "chunk_pairs": 0,
                "items": 0,
                "pid": 0,
                "sealed": False,
                "bytes": size,
            }
        return {
            "name": path.name,
            "version": header[1],
            "chunk_pairs": header[2],
            "items": header[3],
            "pid": header[4],
            "sealed": header[5] == 1,
            "bytes": size,
        }

    @classmethod
    def host_segments(cls) -> list[dict]:
        """Every repro trace segment on this host (name order), with
        publisher liveness and a best-effort attach count."""
        root = shm_dir()
        if root is None:
            return []
        rows = []
        for path in sorted(root.glob(SEGMENT_PREFIX + "*")):
            info = cls._peek(path)
            if info is None:
                continue
            info["publisher_alive"] = _pid_alive(info["pid"])
            info["attached"] = _attach_count(path)
            rows.append(info)
        return rows

    @classmethod
    def scavenge(cls) -> int:
        """Unlink segments orphaned by dead publishers.

        Run before every publish phase and by ``repro traces
        --purge``: a segment -- sealed or torn -- whose publisher pid
        no longer exists belongs to a crashed or SIGKILLed run and is
        removed.  Live publishers' segments are never touched, so
        concurrent sweeps on one host cannot scavenge each other.
        """
        root = shm_dir()
        if root is None:
            return 0
        removed = 0
        for path in sorted(root.glob(SEGMENT_PREFIX + "*")):
            info = cls._peek(path)
            if info is None or _pid_alive(info["pid"]):
                continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    @classmethod
    def purge_host(cls) -> int:
        """Unlink every repro trace segment on the host, live
        publishers included (explicit ``repro traces --purge
        --force``; attached runs keep their mappings and new lookups
        fall back to compiling)."""
        root = shm_dir()
        if root is None:
            return 0
        removed = 0
        for path in sorted(root.glob(SEGMENT_PREFIX + "*")):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


def _attach_count(path: Path) -> int | None:
    """Processes currently mapping ``path`` (Linux; None elsewhere).

    Scans ``/proc/*/maps`` -- only used by ``repro traces --list``,
    never on a hot path.
    """
    proc = Path("/proc")
    if not proc.is_dir():
        return None
    target = str(path)
    count = 0
    for entry in proc.iterdir():
        if not entry.name.isdigit():
            continue
        try:
            with (entry / "maps").open() as fh:
                if any(target in line for line in fh):
                    count += 1
        except OSError:
            continue
    return count


_POOL: SharedChunkPool | None = None


def get_pool() -> SharedChunkPool:
    """The process-wide segment pool (created on first use)."""
    global _POOL
    if _POOL is None:
        _POOL = SharedChunkPool()
    return _POOL


def reset_pool() -> SharedChunkPool:
    """Replace the process-wide pool (tests).  The old pool's owned
    segments are unlinked first so tests cannot leak segments."""
    global _POOL
    if _POOL is not None:
        _POOL.close(unlink=True)
    _POOL = SharedChunkPool()
    return _POOL
