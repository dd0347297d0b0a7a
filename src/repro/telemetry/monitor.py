"""Telemetry interface for address-sampled monitors (UMONs).

Allocation policies used to duck-probe each monitor for private
attributes (``hasattr(m, "_sample_cache")``) to decide whether the
hot-path early exit could be used -- capability detection scattered at
the call site.  This module moves that contract behind one interface:

- every sampled monitor memoises its per-address sampling decision in
  ``_sample_cache`` (``addr -> set index`` for sampled addresses,
  ``addr -> None`` for the rest);
- :meth:`SampledMonitor.sample_filter` hands the caller a bound
  ``dict.get`` over that cache, so policies can skip non-sampled
  addresses without a method call and without knowing the monitor's
  internals;
- :meth:`SampledMonitor.observe` is the uniform reporting entry, and
  :meth:`SampledMonitor.register_stats` plugs the monitor into the
  stats tree.

``UMonitor`` and ``RRIPMonitor`` both implement this interface, so
UCP treats them identically.
"""

from __future__ import annotations


class SampledMonitor:
    """Base class for monitors that sample a subset of addresses.

    Subclasses must keep ``self._sample_cache`` up to date inside
    :meth:`access`: once an address has been seen, the cache maps it
    to its sampled-set index, or to ``None`` when the address falls
    outside the sampled sets (the common case).  An address missing
    from the cache means "not decided yet" -- callers must then call
    :meth:`observe` so the monitor can decide and memoise.

    The decision is a function of the address's set-index hash
    ``_hash`` (an :class:`~repro.arrays.hashing.H3Hash`) and the
    sampling period ``_period``: :meth:`decide` records it from a
    precomputed hash (a batch kernel's :meth:`index_column` entry),
    so the first touch of an address need not hash it again.
    """

    _sample_cache: dict
    _hash: object
    _period: int

    def decide(self, addr: int, set_index: int):
        """Memoise ``addr``'s sampling decision from its set-index
        hash and return it (the sampled set index, or ``None``)."""
        decision = None if set_index % self._period else set_index
        self._sample_cache[addr] = decision
        return decision

    def index_column(self, chunk):
        """The set-index hash of every address in a trace chunk (see
        :meth:`~repro.arrays.hashing.H3Hash.column`)."""
        return self._hash.column(chunk)

    def sample_filter(self):
        """A callable ``f(addr, default)`` for hot-path early exits.

        ``f(addr, -1)`` returns ``None`` for known non-sampled
        addresses (skip the access), the sampled-set index for known
        sampled ones, and the default for undecided addresses (the
        monitor must see the access either way).
        """
        return self._sample_cache.get

    def observe(self, addr: int) -> None:
        """Uniform reporting entry point (same as :meth:`access`)."""
        self.access(addr)

    def access(self, addr: int) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def register_stats(self, group) -> None:
        """Default telemetry: sampling-cache size only; subclasses add
        their hit counters and curves."""
        group.stat(
            "decided_addresses",
            lambda: len(self._sample_cache),
            "addresses whose sampling decision has been memoised",
        )
