"""Spans for the benchmark's traced runs, recorded from outside ``src/``.

:func:`install` wraps public entry points of the layers below the
front doors (job execution, mix construction, the event loop, the
trace store and its chunk compiler, the batch-kernel closure, UCP
allocation, the stats tree and the results cache).  Each call becomes
a span ``[id, name, start, end, parent, job_key, pid, tid, info]`` kept
in memory.  ``time.perf_counter`` reads ``CLOCK_MONOTONIC`` on Linux,
so spans from different processes share one time base.

Spans leave a process in one of two ways.  Worker processes (the
``run_jobs`` pool and the daemon's resident workers) are forked and
inherit the wrappers; their spans ride back on the returned outcome
as ``outcome.perf_spans``.  Server processes are started through this
file (``python perf/tracing.py serve ...``) and write their own spans
to ``spans-<pid>.json`` in their working directory when they exit.

The analysis half (:func:`lane_segments`, :func:`attribute`) needs no
``repro`` import: ``perf/run.py`` uses it on the recorded spans.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

#: Span name -> layer.  ``*.submit`` spans are the client side of the
#: daemon and the gateway.  The benchmark's ``pass`` span and
#: ``run_jobs`` only bracket other layers' work, so they belong to no
#: layer: an instant only they cover -- pool start-up, IPC, unpickling
#: -- goes to ``(none)`` in :func:`attribute`.
LAYER_OF = {
    "plan_jobs": "harness",
    "publish_traces": "harness",
    "execute_job": "harness",
    "run_mix": "harness",
    "build_cache": "harness",
    "build_policy": "harness",
    "results_cache.load": "harness",
    "results_cache.store": "harness",
    "sim.run": "sim",
    "chunk_list": "traces",
    "compile_chunk": "traces",
    "kernel": "partitioning",
    "set_allocations": "partitioning",
    "allocate": "allocation",
    "system_tree": "telemetry",
    "snapshot": "telemetry",
    "svc.submit": "service",
    "fed.submit": "federation",
}

#: Client spans whose self time is spent waiting on a server.  An
#: instant goes to them only when no other lane is doing work.
WAITING = frozenset({"svc.submit", "fed.submit"})


class Recorder:
    """Per-process span store plus the wrappers that fill it."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self.pid = os.getpid()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # The child keeps the forking thread's open-span stack (so its
        # spans name the parent's span) but none of its finished spans.
        self.spans = []
        self.pid = os.getpid()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> str:
        with self._lock:
            self._next += 1
            return f"{self.pid}.{self._next}"

    @property
    def job_key(self):
        return getattr(self._local, "job_key", None)

    def open(self):
        """Push a new span; returns ``(id, parent, start)``."""
        stack = self._stack()
        sid = self._new_id()
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def close(self, token, name: str, key=None, info=None) -> None:
        end = time.perf_counter()
        sid, parent, start = token
        self._stack().pop()
        self.spans.append([
            sid, name, start, end, parent, key or self.job_key,
            self.pid, threading.get_ident(), info,
        ])

    @contextlib.contextmanager
    def span(self, name: str, info=None):
        token = self.open()
        try:
            yield
        finally:
            self.close(token, name, info=info)

    def wrap(self, fn, name: str):
        """``fn`` recording one span per call (attributes copied)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self.open()
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(token, name)

        return traced

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps(self.spans))


def install() -> Recorder:
    """Wrap the layers' entry points in this process (and, through
    fork, in every worker it starts).  Returns the recorder."""
    from repro import telemetry
    from repro.allocation import ucp
    from repro.harness import parallel, results_cache, runner
    from repro.partitioning.base_cache import PartitionedCache
    from repro.service import workers
    from repro.sim.system import CMPSystem
    from repro.traces import store as trace_store

    rec = Recorder()

    real_execute = parallel.execute_job

    @functools.wraps(real_execute)
    def execute_job(job):
        key = results_cache.job_key(job)
        mark = len(rec.spans)
        rec._local.job_key = key
        token = rec.open()
        try:
            outcome = real_execute(job)
        finally:
            rec.close(token, "execute_job", key)
            rec._local.job_key = None
        # Pool and daemon workers cannot reach the session's memory:
        # the job's spans travel home with its outcome.
        outcome.perf_spans = rec.spans[mark:]
        outcome.perf_pid = rec.pid
        del rec.spans[mark:]
        return outcome

    # ``pool.map`` pickles the function by name, so the module
    # attribute must be the wrapper itself (functools.wraps keeps the
    # qualified name); the daemon's workers import their own binding.
    setattr(parallel, "execute_job", execute_job)
    setattr(workers, "execute_job", execute_job)

    for attr in ("run_jobs", "plan_jobs", "publish_traces"):
        setattr(parallel, attr, rec.wrap(getattr(parallel, attr), attr))
    for attr in ("run_mix", "build_cache", "build_policy"):
        setattr(runner, attr, rec.wrap(getattr(runner, attr), attr))
    setattr(runner.MixRun, "stats", rec.wrap(runner.MixRun.stats, "snapshot"))
    setattr(telemetry, "system_tree", rec.wrap(telemetry.system_tree, "system_tree"))
    setattr(CMPSystem, "run", rec.wrap(CMPSystem.run, "sim.run"))
    setattr(trace_store.TraceStore, "chunk_list",
            rec.wrap(trace_store.TraceStore.chunk_list, "chunk_list"))
    setattr(trace_store, "compile_chunk",
            rec.wrap(trace_store.compile_chunk, "compile_chunk"))
    for cls in (ucp.UCPPolicy, ucp.ReuseAwareUCPPolicy):
        setattr(cls, "allocate", rec.wrap(cls.__dict__["allocate"], "allocate"))

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    # ``runner`` imports every scheme's cache class, so all are here.
    for cls in subclasses(PartitionedCache):
        if "set_allocations" in cls.__dict__:
            setattr(cls, "set_allocations",
                    rec.wrap(cls.__dict__["set_allocations"], "set_allocations"))

    real_build = PartitionedCache.build_batch_kernel

    def build_batch_kernel(self, ctx):
        kernel = real_build(self, ctx)
        return None if kernel is None else rec.wrap(kernel, "kernel")

    setattr(PartitionedCache, "build_batch_kernel", build_batch_kernel)

    real_load, real_store = results_cache.load, results_cache.store

    @functools.wraps(real_load)
    def load(key):
        token = rec.open()
        outcome = None
        try:
            outcome = real_load(key)
            return outcome
        finally:
            rec.close(token, "results_cache.load", key, outcome is not None)

    @functools.wraps(real_store)
    def store(key, outcome):
        # Cached payloads must not carry a run's spans: a later load
        # would replay them as if they were new.
        spans = outcome.__dict__.pop("perf_spans", None)
        token = rec.open()
        try:
            real_store(key, outcome)
        finally:
            rec.close(token, "results_cache.store", key)
            if spans is not None:
                outcome.perf_spans = spans

    setattr(results_cache, "load", load)
    setattr(results_cache, "store", store)
    return rec


# -- analysis -----------------------------------------------------------


def lane_segments(spans):
    """Innermost-span segments ``(start, end, span)`` of one lane (one
    thread of one process), whose spans nest properly."""
    out = []
    stack: list = []
    cursor = None
    for span in sorted(spans, key=lambda s: (s[2], -s[3])):
        while stack and stack[-1][3] <= span[2]:
            top = stack.pop()
            out.append((cursor, top[3], top))
            cursor = top[3]
        if stack:
            out.append((cursor, span[2], stack[-1]))
        stack.append(span)
        cursor = span[2]
    while stack:
        top = stack.pop()
        out.append((cursor, top[3], top))
        cursor = top[3]
    return [seg for seg in out if seg[1] > seg[0]]


def lanes(spans) -> dict:
    by_lane = defaultdict(list)
    for span in spans:
        by_lane[(span[6], span[7])].append(span)
    return {lane: lane_segments(group) for lane, group in by_lane.items()}


def self_times(segments_by_lane) -> dict:
    """Span id -> self time (its duration minus its children's)."""
    out: dict = defaultdict(float)
    for segments in segments_by_lane.values():
        for start, end, span in segments:
            out[span[0]] += end - start
    return out


def attribute(segments_by_lane, window) -> dict:
    """Split the wall-clock ``window`` among the layers of
    :data:`LAYER_OF`.

    At each instant the lanes inside a layer's span share it equally;
    waiting spans (see :data:`WAITING`) get it only when no lane
    works, and an instant no layer's span covers goes to ``(none)``.
    The shares sum to the window's length, so ``(none)`` is the time
    the instrumented layers do not account for.
    """
    w0, w1 = window
    events = []
    for lane, segments in segments_by_lane.items():
        for start, end, span in segments:
            if span[1] not in LAYER_OF:
                continue
            start, end = max(start, w0), min(end, w1)
            if end > start:
                events.append((start, 1, lane, span))
                events.append((end, 0, lane, span))
    events.sort(key=lambda e: (e[0], e[1]))
    totals: dict = defaultdict(float)
    active: dict = {}
    prev = w0
    for t, kind, lane, span in events:
        if t > prev:
            working = [s for s in active.values() if s[1] not in WAITING]
            share = working or list(active.values())
            if share:
                for s in share:
                    totals[LAYER_OF[s[1]]] += (t - prev) / len(share)
            else:
                totals["(none)"] += t - prev
            prev = t
        if kind == 0:
            if active.get(lane) is span:
                del active[lane]
        else:
            active[lane] = span
    if w1 > prev:
        totals["(none)"] += w1 - prev
    return dict(totals)


def covers_wall(shares: dict, wall: float, tolerance: float) -> tuple[bool, str]:
    """Whether the layers' shares (``(none)`` left out) sum to within
    ``tolerance`` of the timed ``wall``, with a detail line."""
    total = sum(v for k, v in shares.items() if k != "(none)")
    ok = abs(total - wall) <= tolerance * wall
    return ok, f"{total:.3f} s of {wall:.3f} s ({shares.get('(none)', 0.0):.3f} s unattributed)"


def main(argv: list[str]) -> int:
    """Run a ``repro`` CLI command (``serve``, ``gateway``) traced."""
    rec = install()
    atexit.register(rec.dump, Path.cwd() / f"spans-{os.getpid()}.json")
    from repro.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
