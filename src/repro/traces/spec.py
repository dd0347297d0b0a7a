"""Trace specifications: picklable descriptions of one core's stream.

A :class:`TraceSpec` captures everything that determines a synthetic
address stream -- generator kind, its numeric parameters, the address
base and the seed -- without holding any generator state.  That makes
the *same* stream nameable across processes and runs, which is what
lets the trace store (:mod:`repro.traces.store`) compile it once and
replay it everywhere.

A spec is itself callable and returns a fresh generator, so it is a
drop-in trace factory for :class:`~repro.sim.system.CMPSystem`; the
event loop recognises the spec and feeds that core from the chunk
cursor, while plain callables (``spec.generator`` included) keep the
generator cursor.

Cache keys fold in a *generator-source fingerprint* (the digest of the
generator functions a kind executes), mirroring how the scheme
registry's builder fingerprints invalidate the results cache: editing
``generators.py`` invalidates exactly the chunk files whose streams it
changes.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass
from functools import partial

#: Bump when the chunk binary layout changes (invalidates every chunk).
TRACE_FORMAT_VERSION = 1

_fingerprint_cache: dict[str, str] = {}


def _generators():
    # Imported lazily: workloads.apps builds TraceSpecs, so a
    # module-level import here would be circular.
    from repro.workloads import generators

    return generators


def _kind_sources(kind: str) -> tuple:
    """Generator functions whose source defines ``kind``'s stream."""
    gen = _generators()
    # The Zipf table helpers are part of every stream that draws from
    # a Zipf table.  Every private generator a shared wrapper might
    # wrap is folded into the wrapper's fingerprint (conservative:
    # editing any private shape invalidates the shared chunks too,
    # which is cheap and always safe).
    zipf = (gen.zipf_stream, gen.zipf_cdf, gen.zipf_guide, gen._permutation)
    private = zipf + (gen.loop_stream, gen.scan_stream, gen.phased_stream)
    sources = {
        "zipf": zipf,
        "loop": (gen.loop_stream,),
        "scan": (gen.scan_stream, gen.loop_stream),
        "phased-loop": (gen.phased_stream, gen.loop_stream),
        "pc-shared": (gen.producer_consumer_stream, gen._shared_rng) + private,
        "table-shared": (gen.shared_table_stream, gen.shared_table, gen._shared_rng)
        + private,
        "migratory-shared": (gen.migratory_stream, gen._shared_rng) + private,
    }
    try:
        return sources[kind]
    except KeyError:
        raise ValueError(
            f"unknown trace kind {kind!r}; known: {', '.join(sorted(sources))}"
        ) from None


def generator_fingerprint(kind: str) -> str:
    """Digest of the generator sources behind ``kind``.

    Best-effort like the registry fingerprints: if source is
    unavailable (frozen interpreter), the repr stands in.
    """
    cached = _fingerprint_cache.get(kind)
    if cached is not None:
        return cached
    parts = []
    for fn in _kind_sources(kind):
        try:
            parts.append(inspect.getsource(fn))
        except (OSError, TypeError):
            parts.append(repr(fn))
    digest = hashlib.sha256("\x1f".join(parts).encode()).hexdigest()
    _fingerprint_cache[kind] = digest
    return digest


@dataclass(frozen=True)
class TraceSpec:
    """One core's synthetic stream, fully described by values.

    ``params`` is the kind-specific parameter tuple:

    - ``zipf``: ``(ws_lines, alpha, mean_gap)``
    - ``loop`` / ``scan``: ``(ws_lines, mean_gap)``
    - ``phased-loop``: ``(ws_lines, ws2_lines, mean_gap, phase_accesses)``
    - ``pc-shared`` / ``table-shared`` / ``migratory-shared``:
      ``(private_kind, private_params, shared_base, shared_lines,
      fraction, extra, core, num_cores, shared_seed)`` where ``extra``
      is the table's alpha / the migratory window / 0.
    """

    name: str
    kind: str
    params: tuple
    base: int
    seed: int

    def generator(self):
        """A fresh ``(gap, addr)`` iterator -- bitwise-identical to the
        stream the pre-chunk ``AppSpec.trace_factory`` produced."""
        gen = _generators()
        kind = self.kind
        params = self.params
        if kind == "zipf":
            ws_lines, alpha, mean_gap = params
            return gen.zipf_stream(ws_lines, alpha, mean_gap, self.base, self.seed)
        if kind == "loop":
            ws_lines, mean_gap = params
            return gen.loop_stream(ws_lines, mean_gap, self.base, self.seed)
        if kind == "scan":
            ws_lines, mean_gap = params
            return gen.scan_stream(ws_lines, mean_gap, self.base, self.seed)
        if kind == "phased-loop":
            ws_lines, ws2_lines, mean_gap, phase_accesses = params
            return gen.phased_stream(
                partial(gen.loop_stream, ws_lines, mean_gap),
                partial(gen.loop_stream, ws2_lines, mean_gap),
                phase_accesses,
                self.base,
                self.seed,
            )
        if kind in ("pc-shared", "table-shared", "migratory-shared"):
            (
                private_kind,
                private_params,
                shared_base,
                shared_lines,
                fraction,
                extra,
                core,
                num_cores,
                shared_seed,
            ) = params
            private = TraceSpec(
                name=self.name,
                kind=private_kind,
                params=tuple(private_params),
                base=self.base,
                seed=self.seed,
            ).generator()
            if kind == "pc-shared":
                return gen.producer_consumer_stream(
                    private, shared_base, shared_lines, fraction,
                    core, num_cores, shared_seed, self.seed,
                )
            if kind == "table-shared":
                return gen.shared_table_stream(
                    private, shared_base, shared_lines, fraction, extra,
                    core, num_cores, shared_seed, self.seed,
                )
            return gen.migratory_stream(
                private, shared_base, shared_lines, fraction, extra,
                core, num_cores, shared_seed, self.seed,
            )
        raise ValueError(f"unknown trace kind {kind!r}")

    def __call__(self):
        return self.generator()

    def key(self, chunk_pairs: int) -> str:
        """Content hash naming this stream's chunk sequence in the
        trace store (app name + params + base + seed + chunking +
        generator-source fingerprint)."""
        payload = {
            "version": TRACE_FORMAT_VERSION,
            "name": self.name,
            "kind": self.kind,
            "params": list(self.params),
            "base": self.base,
            "seed": self.seed,
            "chunk_pairs": chunk_pairs,
            "generators": generator_fingerprint(self.kind),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def describe(self) -> dict:
        """Human-readable metadata persisted next to on-disk chunks."""
        return {
            "name": self.name,
            "kind": self.kind,
            "params": list(self.params),
            "base": self.base,
            "seed": self.seed,
        }
