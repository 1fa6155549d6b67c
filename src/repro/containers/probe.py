"""Sort-free, hash-free index probes over canonical index arrays.

Canonical index arrays are sorted, duplicate-free and lie in
``[0, domain)``.  Every merge in the kernel layer and the write pipeline
asks one of two questions about them, answered here through per-thread
dense workspaces over the domain — the CPU mirror of a GPU backend's
sparse/dense vector switch — instead of ``searchsorted`` or hashing
(``np.union1d`` and ``np.isin`` hash on NumPy 2.x):

- :func:`probe` — where, if anywhere, is each needle in a haystack?  An
  int32 **slot map**, all zeros between calls, gets ``slot + 1`` scattered
  at the haystack, is gathered at the needles and scattered back to zero:
  O(|haystack| + |needles|) however large the domain.  :func:`contains`
  answers membership alone the same way through the bitmap below, at one
  byte per needle instead of four plus a position pass.
- :func:`union_merge` — the sorted union of two sets and where each
  operand lands in it.  A bool **presence bitmap** is scattered, read back
  with one ``flatnonzero`` scan of the domain and cleared; one slot-map
  gather then ranks both operands.

A **full** haystack (``size == domain``) is ``arange(domain)``, so every
needle hits at its own value: the three functions answer it without
touching either workspace (a full union operand is the union itself).
The returned positions and union may then be the caller's own index
arrays; container index arrays are never written in place.

The bitmap is the slot map's own bytes viewed as bool (all zero is all
False), so the two never hold memory apart.  The map is restored before a
call returns, also when it raises, so an operator a caller runs afterwards
cannot meet stale slots.  Above
:data:`PROBE_CAP`, and for a union whose domain scan would cost more than a
sort, the same results come from ``np.sort`` plus ``searchsorted``.
"""

from __future__ import annotations

import threading
from typing import Any, Tuple

import numpy as np
import numpy.typing as npt

__all__ = ["PROBE_CAP", "UNION_DENSITY", "contains", "probe", "union_merge"]

# Largest domain the workspace covers (128 MB of slots).  A fresh map is
# calloc'ed, so only pages that indices land on use memory.
PROBE_CAP = 1 << 25

# The bitmap union scans its whole domain; measured on NumPy 2.4 (x86-64)
# it beats the sort while the domain is under ~30x the operands' size.
UNION_DENSITY = 16

IndexArray = npt.NDArray[np.integer[Any]]
BoolArray = npt.NDArray[np.bool_]


class _Workspace(threading.local):
    def __init__(self) -> None:
        self.slots: npt.NDArray[np.int32] = np.zeros(0, dtype=np.int32)


_WS = _Workspace()


def _capacity(domain: int) -> int:
    return 1 << max(10, (domain - 1).bit_length())


def _slots(domain: int) -> npt.NDArray[np.int32]:
    if _WS.slots.size < domain:
        _WS.slots = np.zeros(_capacity(domain), dtype=np.int32)
    return _WS.slots


def _bits(domain: int) -> BoolArray:
    return _slots((domain + 3) // 4).view(np.bool_)


def probe(
    haystack: IndexArray, needles: IndexArray, domain: int
) -> Tuple[BoolArray, IndexArray]:
    """``(hit, pos)`` of each needle in a canonical ``haystack``.

    ``hit[k]`` says whether ``needles[k]`` is stored in ``haystack`` and
    ``pos[k]`` is its position there, or -1 (int32 from the slot map,
    int64 from the fallback, ``needles`` itself for a full haystack).
    Needles may repeat and come in any order.
    """
    n = haystack.size
    if n == domain:
        return np.ones(needles.size, dtype=np.bool_), needles
    if n == 0:
        return np.zeros(needles.size, dtype=np.bool_), np.full(needles.size, -1, np.int64)
    if domain <= PROBE_CAP:
        slots = _slots(domain)
        slots[haystack] = np.arange(1, n + 1, dtype=np.int32)
        try:
            found = slots[needles]
        finally:
            slots[haystack] = 0
        hit = found != 0
        found -= 1
        return hit, found
    pos = np.searchsorted(haystack, needles).astype(np.int64, copy=False)
    hit = haystack[np.minimum(pos, n - 1)] == needles
    pos[~hit] = -1
    return hit, pos


def contains(haystack: IndexArray, needles: IndexArray, domain: int) -> BoolArray:
    """``probe(haystack, needles, domain)[0]`` without the positions."""
    if haystack.size == domain:
        return np.ones(needles.size, dtype=np.bool_)
    if domain > PROBE_CAP:
        return probe(haystack, needles, domain)[0]
    bits = _bits(domain)
    bits[haystack] = True
    try:
        return bits[needles]
    finally:
        bits[haystack] = False


def union_merge(
    a_idx: IndexArray, b_idx: IndexArray, domain: int
) -> Tuple[IndexArray, IndexArray, IndexArray]:
    """``(union, a_at, b_at)``: the sorted union of two canonical arrays,
    with ``union[a_at] == a_idx`` and ``union[b_at] == b_idx``."""
    if a_idx.size == domain:
        return a_idx, np.arange(domain, dtype=np.int64), b_idx
    if b_idx.size == domain:
        return b_idx, a_idx, np.arange(domain, dtype=np.int64)
    m = a_idx.size + b_idx.size
    if domain <= PROBE_CAP and domain <= UNION_DENSITY * m:
        bits = _bits(domain)
        try:
            bits[a_idx] = True
            bits[b_idx] = True
            union = np.flatnonzero(bits[:domain])
        finally:
            bits[a_idx] = False
            bits[b_idx] = False
        slots = _slots(domain)
        slots[union] = np.arange(union.size, dtype=np.int32)
        try:
            a_at = slots[a_idx].astype(np.int64)
            b_at = slots[b_idx].astype(np.int64)
        finally:
            slots[union] = 0
        return union, a_at, b_at
    merged = np.concatenate((a_idx, b_idx)).astype(np.int64, copy=False)
    merged.sort(kind="stable")  # two sorted runs: timsort merges them in one pass
    fresh = np.ones(merged.size, dtype=np.bool_)
    np.not_equal(merged[1:], merged[:-1], out=fresh[1:])
    union = merged[fresh]
    return union, np.searchsorted(union, a_idx), np.searchsorted(union, b_idx)
