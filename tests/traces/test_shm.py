"""The shared chunk layer's lifecycle (``REPRO_TRACE_SHM=1`` and
``REPRO_TRACE_CACHE``).

Contracts under test, from :mod:`repro.traces.store`'s docstring:

- a published chunk maps bitwise-identical to the private
  ``array('q')`` lane, in this process and in a fresh one, and so does
  a ``REPRO_TRACE_CACHE`` chunk;
- publishing is first-creator-wins and idempotent;
- a torn file (a dead writer's temp file, or a short file under a
  final name) is *never* served, the scavenger removes a dead
  writer's files, and the consumer falls back to compiling -- same for
  the directories of a SIGKILLed publisher, while a live publisher's
  are left alone;
- owners remove the ``/dev/shm`` directories they created at exit (no
  leaks after a clean exit *or* a hard kill plus one scavenge), and a
  forked worker never does;
- the shared layer sits between the in-process LRU and compile, its
  counters (``shm_hits`` et al.) observe real traffic, and the LRU
  bounds how many chunk files a process keeps mapped.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import subprocess
import sys
import textwrap
import weakref
from array import array
from pathlib import Path

import pytest

from repro.traces import TraceStore, release_shared, scavenge
from repro.traces import store as store_mod
from repro.traces.chunks import chunk_nbytes
from repro.workloads import APPS

pytestmark = pytest.mark.skipif(
    store_mod.shm_root() is None, reason="no /dev/shm on this platform"
)

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _own_trace_dirs() -> set[Path]:
    """Trace directories on the ``/dev/shm`` root that this process
    created (other processes on the host may publish meanwhile)."""
    return {
        path
        for path in store_mod.SHM_ROOT.glob("??/*")
        if (store_mod._read_meta(path) or {}).get("pid") == os.getpid()
    }


@pytest.fixture(autouse=True)
def _shm_env(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_SHM", "1")
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    yield
    release_shared()
    leaked = _own_trace_dirs()
    for path in leaked:
        store_mod._remove(path)
    assert not leaked, f"test leaked trace directories: {sorted(leaked)}"


def _spec(name: str = "mcf", seed: int = 3):
    return APPS[name].trace_spec(base=0, seed=seed)


def _trace_dir(store: TraceStore, spec) -> Path:
    key = store.key_of(spec)
    return store_mod.SHM_ROOT / key[:2] / key


def _env(**extra) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_TRACE_SHM"] = "1"
    env.update(extra)
    return env


def _subprocess(code: str, **env) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=_env(**env),
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _dead_pid() -> int:
    proc = subprocess.Popen([sys.executable, "-c", ""])
    proc.wait()
    return proc.pid


# -- publish / map ------------------------------------------------------


def test_publish_attach_round_trip_bitwise():
    spec = _spec()
    private = TraceStore(chunk_pairs=64).get_chunk(spec, 0)
    assert isinstance(private, array)  # nothing published yet: compiled
    owner = TraceStore(chunk_pairs=64)
    assert owner.publish_prefix(spec, 1, max_chunks=1) == 1

    view = TraceStore(chunk_pairs=64).get_chunk(spec, 0)
    assert isinstance(view, memoryview) and view.format == "q"
    assert view.readonly
    assert bytes(view) == bytes(memoryview(private))
    assert view.tolist() == private.tolist()


def test_publish_is_idempotent_and_attach_counts():
    spec = _spec()
    owner = TraceStore(chunk_pairs=64)
    assert owner.publish_prefix(spec, 1, max_chunks=1) == 1
    assert owner.publish_prefix(spec, 1, max_chunks=1) == 0
    assert owner.shm_publishes == 1
    assert (_trace_dir(owner, spec) / "00000000.i64").is_file()

    reader = TraceStore(chunk_pairs=64)
    reader.get_chunk(spec, 0)
    reader.get_chunk(spec, 0)
    assert (reader.shm_hits, reader.mem_hits, reader.compiles) == (1, 1, 0)


def test_attach_misses_cleanly():
    spec = _spec()
    reader = TraceStore(chunk_pairs=64)
    chunk = reader.get_chunk(spec, 0)  # nothing published
    assert isinstance(chunk, array)
    assert (reader.shm_hits, reader.shm_misses, reader.compiles) == (0, 1, 1)
    # Another chunk size is another key: a miss, not a wrong answer.
    TraceStore(chunk_pairs=64).publish_prefix(spec, 1, max_chunks=1)
    other = TraceStore(chunk_pairs=32)
    assert isinstance(other.get_chunk(spec, 0), array)
    assert (other.shm_hits, other.shm_misses) == (0, 1)


def test_attach_survives_publisher_unlink():
    """POSIX semantics: removing a file removes the name, not live
    mappings."""
    spec = _spec()
    owner = TraceStore(chunk_pairs=64)
    owner.publish_prefix(spec, 1, max_chunks=1)
    view = TraceStore(chunk_pairs=64).get_chunk(spec, 0)
    expected = TraceStore(chunk_pairs=64).get_chunk(spec, 0).tolist()
    assert release_shared() == 1
    assert not _trace_dir(owner, spec).exists()
    assert view.tolist() == expected  # mapping still valid
    fresh = TraceStore(chunk_pairs=64)
    fresh.get_chunk(spec, 0)  # new lookups miss and compile
    assert (fresh.shm_hits, fresh.compiles) == (0, 1)


def test_fresh_process_attaches_by_name():
    spec = _spec(seed=9)
    owner = TraceStore(chunk_pairs=64)
    owner.publish_prefix(spec, 1, max_chunks=1)
    expected = TraceStore(chunk_pairs=64).get_chunk(spec, 0).tolist()
    proc = _subprocess(
        """
        from repro.traces import TraceStore
        from repro.workloads import APPS
        store = TraceStore(chunk_pairs=64)
        view = store.get_chunk(APPS["mcf"].trace_spec(base=0, seed=9), 0)
        assert isinstance(view, memoryview)
        assert (store.shm_hits, store.compiles) == (1, 0)
        print(view.tolist())
        """
    )
    assert proc.stdout.strip() == str(expected)
    assert proc.stderr.strip() == ""


def test_fresh_process_reads_trace_cache_as_memoryview(tmp_path, monkeypatch):
    """The persistent root is the same layer: a fresh process maps a
    ``REPRO_TRACE_CACHE`` chunk, counted as a disk hit."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    monkeypatch.delenv("REPRO_TRACE_SHM")
    spec = _spec(seed=5)
    expected = TraceStore(chunk_pairs=64).get_chunk(spec, 0).tolist()
    proc = _subprocess(
        """
        from repro.traces import TraceStore
        from repro.workloads import APPS
        store = TraceStore(chunk_pairs=64)
        view = store.get_chunk(APPS["mcf"].trace_spec(base=0, seed=5), 0)
        assert isinstance(view, memoryview), type(view)
        assert (store.disk_hits, store.shm_hits, store.compiles) == (1, 0, 0)
        print(view.tolist())
        """,
        REPRO_TRACE_SHM="0",
        REPRO_TRACE_CACHE=str(tmp_path / "traces"),
    )
    assert proc.stdout.strip() == str(expected)


# -- torn files and the scavenger ---------------------------------------


def test_torn_segment_never_served_and_scavenged():
    """A publisher that dies mid-write leaves a temp file; readers
    never see it, and the scavenger removes the dead pid's directory."""
    spec = _spec(seed=4)
    proc = _subprocess(
        """
        import os
        from repro.traces import TraceStore, store as store_mod
        from repro.workloads import APPS
        spec = APPS["mcf"].trace_spec(base=0, seed=4)
        store = TraceStore(chunk_pairs=64)
        assert store.publish_prefix(spec, 1, max_chunks=1) == 1
        key = store.key_of(spec)
        trace_dir = store_mod.SHM_ROOT / key[:2] / key
        # Chunk 1, half written, under this pid's temp name.
        (trace_dir / f".{os.getpid()}-torn.tmp").write_bytes(b"\\1" * 100)
        print(trace_dir, flush=True)
        os._exit(0)  # dies before renaming, and skips its atexit release
        """
    )
    trace_dir = Path(proc.stdout.strip())
    assert json.loads((trace_dir / "meta.json").read_text())["pid"] > 0
    reader = TraceStore(chunk_pairs=64)
    chunk = reader.get_chunk(spec, 1)  # only the temp name exists
    assert (reader.shm_misses, reader.compiles) == (1, 2)
    assert chunk.tolist() == TraceStore(chunk_pairs=64).get_chunk(spec, 1).tolist()
    assert scavenge() >= 1
    assert not trace_dir.exists()


def test_job_falls_back_to_compile_past_torn_segment():
    """A chunk file shorter than a chunk is dropped, not served: the
    consumer gets its chunk from the compile layer and counts a miss."""
    spec = _spec()
    owner = TraceStore(chunk_pairs=64)
    owner.publish_prefix(spec, 1, max_chunks=1)
    path = _trace_dir(owner, spec) / "00000000.i64"
    store_mod._write_atomic(path, path.read_bytes()[:100])
    reader = TraceStore(chunk_pairs=64)
    chunk = reader.get_chunk(spec, 0)
    assert (reader.shm_hits, reader.shm_misses, reader.compiles) == (0, 1, 1)
    assert not path.exists()
    assert list(chunk) == list(TraceStore(chunk_pairs=64).get_chunk(spec, 0))


def test_scavenge_reclaims_sigkilled_publisher():
    """A publisher SIGKILLed mid-run leaves its directories behind; one
    scavenge removes them, but never while the publisher lives (only a
    dead writer's temp file inside them goes)."""
    code = """
        from repro.traces import TraceStore
        from repro.workloads import APPS
        store = TraceStore(chunk_pairs=64)
        for seed in (6, 7):
            spec = APPS["mcf"].trace_spec(base=0, seed=seed)
            assert store.publish_prefix(spec, 1, max_chunks=2) >= 1
        print("published", flush=True)
        import time
        time.sleep(60)
    """
    proc = subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(code)],
        stdout=subprocess.PIPE,
        text=True,
        env=_env(),
    )
    try:
        assert proc.stdout.readline().strip() == "published"
        keys = TraceStore(chunk_pairs=64)
        dirs = [_trace_dir(keys, _spec(seed=seed)) for seed in (6, 7)]
        assert all(d.is_dir() for d in dirs)
        stray = dirs[0] / f".{_dead_pid()}-stray.tmp"
        stray.write_bytes(b"\0" * 8)
        # Publisher alive: its directories stay, the stray goes.
        assert scavenge() >= 1
        assert all(d.is_dir() for d in dirs) and not stray.exists()
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        assert scavenge() >= 2
        assert not any(d.exists() for d in dirs)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_owner_atexit_unlinks_no_leaks():
    proc = _subprocess(
        """
        from repro.traces import TraceStore, store as store_mod
        from repro.workloads import APPS
        store = TraceStore(chunk_pairs=64)
        spec = APPS["mcf"].trace_spec(base=0, seed=8)
        store.publish_prefix(spec, 1, max_chunks=2)
        key = store.key_of(spec)
        assert (store_mod.SHM_ROOT / key[:2] / key / "00000000.i64").exists()
        """
    )
    assert proc.stderr.strip() == ""
    assert not _trace_dir(TraceStore(chunk_pairs=64), _spec(seed=8)).exists()


def test_forked_worker_exit_does_not_unlink():
    """The release is pid-guarded: a forked child inheriting the
    owner's registry never removes the parent's directories."""
    spec = _spec()
    owner = TraceStore(chunk_pairs=64)
    owner.publish_prefix(spec, 1, max_chunks=1)
    pid = os.fork()
    if pid == 0:
        # Child: run the exit-time release directly, then vanish.
        try:
            code = release_shared()
        finally:
            os._exit(0 if code == 0 else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert _trace_dir(owner, spec).is_dir()
    reader = TraceStore(chunk_pairs=64)
    assert isinstance(reader.get_chunk(spec, 0), memoryview)


# -- store integration --------------------------------------------------


def test_store_layers_mem_then_shm_then_compile():
    spec = APPS["soplex"].trace_spec(base=1 << 44, seed=7)
    owner = TraceStore(chunk_pairs=64)
    baseline = list(owner.get_chunk(spec, 0))
    created = owner.publish_prefix(spec, 1, max_chunks=1)
    assert created == 1 and owner.shm_publishes == 1

    reader = TraceStore(chunk_pairs=64)
    chunk = reader.get_chunk(spec, 0)
    assert isinstance(chunk, memoryview)
    assert list(chunk) == baseline
    assert (reader.shm_hits, reader.compiles) == (1, 0)
    assert reader.shm_bytes == 64 * 2 * 8
    # Second read is a memory hit on the remembered view.
    reader.get_chunk(spec, 0)
    assert (reader.mem_hits, reader.shm_hits) == (1, 1)
    # Past the published prefix: a shared miss, then compile.
    reader.get_chunk(spec, 1)
    assert (reader.shm_misses, reader.compiles) == (1, 2)


def test_both_knobs_publish_into_trace_cache(tmp_path, monkeypatch):
    """With both knobs set the persistent directory is the shared
    layer: publishing writes there, hits count as disk hits, and the
    files carry no owner and outlive the release."""
    root = tmp_path / "traces"
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(root))
    spec = _spec(seed=11)
    owner = TraceStore(chunk_pairs=64)
    assert owner.publish_prefix(spec, 1, max_chunks=1) == 1
    key = owner.key_of(spec)
    assert (root / key[:2] / key / "00000000.i64").is_file()
    assert "pid" not in json.loads((root / key[:2] / key / "meta.json").read_text())
    assert not _trace_dir(owner, spec).exists()
    assert release_shared() == 0
    reader = TraceStore(chunk_pairs=64)
    assert isinstance(reader.get_chunk(spec, 0), memoryview)
    assert (reader.disk_hits, reader.shm_hits, reader.compiles) == (1, 0, 0)


def test_publish_prefix_pops_private_copies():
    """Published chunks leave the owner's LRU, so forked workers that
    inherit the store observe ``shm_hits``, not inherited arrays."""
    spec = APPS["milc"].trace_spec(base=0, seed=2)
    store = TraceStore(chunk_pairs=64)
    store.get_chunk(spec, 0)
    key = store.key_of(spec)
    assert (key, 0) in store._chunks
    store.publish_prefix(spec, 1, max_chunks=2)
    assert (key, 0) not in store._chunks
    view = store.get_chunk(spec, 0)
    assert isinstance(view, memoryview)
    assert store.shm_hits == 1


def test_publish_prefix_horizon_and_cap():
    spec = APPS["mcf"].trace_spec(base=0, seed=4)
    store = TraceStore(chunk_pairs=16)
    # max_chunks caps the prefix regardless of the target.
    assert store.publish_prefix(spec, 10**9, max_chunks=3) == 3
    assert len(list(_trace_dir(store, spec).glob("*.i64"))) == 3
    # Re-publishing covers the same prefix without creating files.
    assert store.publish_prefix(spec, 10**9, max_chunks=3) == 0
    # A tiny target publishes a single chunk (slack rounds up to one).
    other = APPS["mcf"].trace_spec(base=1 << 44, seed=4)
    assert store.publish_prefix(other, 1, slack=1.0, max_chunks=64) == 1


def test_shm_disabled_is_invisible(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_SHM", "0")
    spec = APPS["astar"].trace_spec(base=0, seed=1)
    store = TraceStore(chunk_pairs=32)
    chunk = store.get_chunk(spec, 0)
    assert isinstance(chunk, array)
    assert store.publish_prefix(spec, 10**9) == 0
    assert store.shm_hits == store.shm_misses == store.shm_publishes == 0
    assert not _trace_dir(store, spec).exists()


def test_attachment_lru_is_bounded():
    """The LRU bounds the mappings: with views dropped by the caller,
    at most ``max_chunks`` chunk files stay mapped, and an evicted
    chunk maps again on its next lookup."""
    spec = _spec()
    TraceStore(chunk_pairs=16).publish_prefix(spec, 10**9, max_chunks=8)
    reader = TraceStore(chunk_pairs=16, max_chunks=4)
    mappings = []
    for index in range(8):
        view = reader.get_chunk(spec, index)
        mappings.append(weakref.ref(view.obj))
        del view
    gc.collect()
    assert sum(ref() is not None for ref in mappings) == 4
    assert reader.shm_hits == 8 and reader.evictions == 4
    reader.get_chunk(spec, 0)
    assert reader.shm_hits == 9


def test_evicted_view_releases_its_mapping():
    spec = _spec()
    TraceStore(chunk_pairs=16).publish_prefix(spec, 10**9, max_chunks=2)
    reader = TraceStore(chunk_pairs=16, max_chunks=1)
    view = reader.get_chunk(spec, 0)
    mapping = weakref.ref(view.obj)
    del view
    assert mapping() is not None  # held by the LRU
    reader.get_chunk(spec, 1)  # evicts chunk 0
    assert mapping() is None


def test_host_segments_lists_fabric_state():
    spec = _spec()
    owner = TraceStore(chunk_pairs=64)
    owner.publish_prefix(spec, 1, max_chunks=1)
    key = owner.key_of(spec)
    rows = [r for r in store_mod.list_traces(store_mod.SHM_ROOT) if r["key"] == key]
    assert len(rows) == 1
    row = rows[0]
    assert (row["pid"], row["alive"]) == (os.getpid(), True)
    assert (row["name"], row["seed"], row["chunk_pairs"]) == ("mcf", 3, 64)
    assert (row["chunks"], row["bytes"]) == (1, chunk_nbytes(64))
