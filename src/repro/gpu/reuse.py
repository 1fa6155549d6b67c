"""Reuse-layer switches.

The iteration-aware reuse layer has two independently toggleable parts:

- ``aux_cache`` — version-stamped memoisation of auxiliary structures
  (transpose/CSC, degree vectors, row-nnz maxima) on the containers;
- ``elision`` — identity-preserving trivial merges plus device-resident
  result marking, so clean containers skip repeated H2D uploads.

Both default to on.  The third reuse mechanism, loop capture (the CUDA
Graphs analogue), is the lazy optimizer's ``capture`` pass
(:mod:`repro.lazy.config`); :func:`graphs_enabled` reads that switch.
:func:`reuse_disabled` turns all three off and so restores the pre-reuse
behaviour — benchmarks and the acceptance tests use it to measure the
layer against its own baseline within one process.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = [
    "aux_cache_enabled",
    "elision_enabled",
    "graphs_enabled",
    "configure",
    "reuse_disabled",
]


class _Flags:
    __slots__ = ("aux_cache", "elision")

    def __init__(self) -> None:
        self.aux_cache = True
        self.elision = True


_FLAGS = _Flags()


def aux_cache_enabled() -> bool:
    return _FLAGS.aux_cache


def elision_enabled() -> bool:
    return _FLAGS.elision


def graphs_enabled() -> bool:
    """True when steady-state loops are captured (the lazy ``capture`` pass)."""
    from ..lazy.config import pass_enabled

    return pass_enabled("capture")


def configure(
    aux_cache: Optional[bool] = None,
    elision: Optional[bool] = None,
) -> None:
    """Set individual reuse switches (None leaves a switch untouched)."""
    if aux_cache is not None:
        _FLAGS.aux_cache = bool(aux_cache)
    if elision is not None:
        _FLAGS.elision = bool(elision)


@contextmanager
def reuse_disabled() -> Iterator[None]:
    """Run with every reuse mechanism off (the pre-reuse baseline).

    Loop capture goes off through the lazy pass switch, which settles
    pending work on entry and on exit, while the cache and elision flags
    are still in the state that work was recorded under.
    """
    from ..lazy.config import passes_configured

    prev = (_FLAGS.aux_cache, _FLAGS.elision)
    try:
        with passes_configured(capture=False):
            _FLAGS.aux_cache = _FLAGS.elision = False
            yield
    finally:
        _FLAGS.aux_cache, _FLAGS.elision = prev
