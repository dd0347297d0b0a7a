"""Imports deferred to first use.

A process should import only the code it runs: the federation gateway
and the clients never simulate, so they must not pay for numpy or for
the simulator's analysis and table modules at start-up.  Two helpers:

- :func:`load_numpy` is the one place that imports numpy.  Every
  vectorised path (:func:`repro.arrays.hashing.hash_column`,
  :meth:`repro.arrays.hashing.H3Hash.bulk`,
  :func:`repro.allocation.ucp.lookahead_allocate`) calls it at use and
  runs its scalar twin when it returns ``None``; tests force the
  scalar paths by patching this one function.
- :func:`reexport` gives a package PEP 562 hooks that import a
  re-exported name's submodule on first access, so ``import
  repro.service.client`` does not import the daemon.

This module imports only the stdlib.
"""

from __future__ import annotations

import functools
import importlib
import sys


@functools.cache
def load_numpy():
    """numpy, imported on the first call; ``None`` where it cannot be
    imported (the scalar paths then run, bit-identical)."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def reexport(package: str, exports: dict[str, tuple[str, ...]]):
    """PEP 562 ``__getattr__`` and ``__dir__`` for ``package``, plus
    its ``__all__``.

    ``exports`` maps a submodule (relative to ``package``) to the
    names the package re-exports from it.  The first access to a name
    imports its submodule and stores the value in the package's
    namespace, so later reads, ``from package import name`` and
    ``monkeypatch.setattr`` all see a plain attribute.
    """
    source = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = source.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | source.keys())

    return __getattr__, __dir__, sorted(source)
