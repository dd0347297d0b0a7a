"""Telemetry interface for set-sampled monitors (UMONs).

UMON-DSS samples *sets*, not addresses: an access is monitored when
its set index ``s`` -- the monitor's H3 hash of the address
(``_hash``, an :class:`~repro.arrays.hashing.H3Hash`) -- satisfies
``s % _period == 0``, so the monitor keeps no state per address.
The set index reaches a monitor on one of two lanes, which must
produce identical stats:

- the *kernel lane*: a batch kernel reads it from the chunk's UMON
  index column (:meth:`SampledMonitor.index_column`, built once per
  trace chunk), so no address is hashed on the hot path;
- the *object lane*: :meth:`SampledMonitor.observe` (and
  ``UCPPolicy.observe`` without a set index) hashes the address,
  which also serves cores fed by an iterator.

Either way the caller hands the index to :meth:`SampledMonitor.access`,
which applies the sampling rule itself.  ``UMonitor``,
``ReuseUMonitor`` and ``RRIPMonitor`` all implement this interface, so
UCP treats them identically.
"""

from __future__ import annotations


class SampledMonitor:
    """Base class for monitors that sample a subset of the sets.

    Subclasses set ``_hash`` (the set-index hash) and ``_period`` (the
    model's sets per sampled set) and implement
    :meth:`access(addr, set_index) <access>`, returning at once when
    ``set_index % _period`` is non-zero.
    """

    _hash: object
    _period: int

    def index_column(self, chunk):
        """The set-index hash of every address in a trace chunk (see
        :meth:`~repro.arrays.hashing.H3Hash.column`)."""
        return self._hash.column(chunk)

    def observe(self, addr: int) -> None:
        """Object-lane entry: hash ``addr`` and report the access."""
        self.access(addr, self._hash(addr))

    def access(self, addr: int, set_index: int) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def register_stats(self, group) -> None:  # pragma: no cover - interface
        raise NotImplementedError
