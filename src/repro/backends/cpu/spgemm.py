"""Vectorized SpGEMM (mxm) — expand, reduce (sort-free when possible).

The row-merge (Gustavson) formulation: ``C[i,:] = ⊕_k A[i,k] ⊗ B[k,:]``.
Instead of per-row hash maps (the GPU strategy, see
:mod:`repro.backends.cuda_sim`), the CPU kernel materialises the partial-
product *coordinates* — one per FLOP — then groups by (row, col) flat key.

Two refinements over the classic expand–sort–reduce:

- **Mask fusion**: the masked kernel tests every expanded coordinate
  against the mask *before* computing any product value.  Membership and
  slot lookup are one fused :func:`~repro.containers.probe.probe` of the
  allowed keys over the output keyspace (a dense slot-map gather).
  Surviving entries are reduced into a dense accumulator indexed by the
  mask-slot number — the CPU mirror of bounding hash-table writes by the
  mask in a GPU kernel — so nothing outside the mask is ever multiplied,
  sorted, or written.  The expansion arrays live in reusable
  :func:`~.fastpath.scratch` workspaces.
- **Sort-free reduce**: grouped reduction lowers onto the
  :mod:`.fastpath` dense-accumulator strategies for standard monoids; the
  stable sort + ``segment_reduce`` remains the generic fallback and is
  bit-identical.  ``PLUS`` over the value-blind ``PAIR`` multiply (triangle
  counting's semiring) degenerates to pure key *counting* — no value is
  gathered or multiplied at all.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...containers.csr import CSRMatrix
from ...containers.probe import probe
from ...containers.sparsevec import SparseVector
from ...core.descriptor import DEFAULT, Descriptor
from ...core.mask import mask_truthy
from ...core.semiring import Semiring
from ...types import GrBType
from .fastpath import (
    dense_keyspace_ok,
    fast_reduce_by_key,
    reduce_strategy,
    scratch,
)
from .segments import run_starts, segment_reduce
from .spmv import take_ranges

__all__ = [
    "spgemm_esr",
    "spgemm_masked_esr",
    "expand_products",
    "expand_structure",
    "mask_keys_for",
]

def expand_structure(a: CSRMatrix, b: CSRMatrix):
    """Coordinates of all partial products of ``A ⊗ B`` — values untouched.

    Returns ``(rows, cols, b_take, a_take)``: entry ``p`` of the expansion
    multiplies ``a.values[a_take[p]]`` with ``b.values[b_take[p]]`` into
    output cell ``(rows[p], cols[p])``.  Ordered by A's storage order
    (row-major, so ``rows`` is nondecreasing).  Deferring the value gathers
    lets masked SpGEMM drop coordinates before any multiply happens.
    """
    a_rows = np.repeat(np.arange(a.nrows, dtype=np.int64), a.row_degrees())
    # For every A entry (i, k, av): expand B's row k.
    b_take, lens = take_ranges(b.indptr, a.indices)
    rows = np.repeat(a_rows, lens)
    cols = b.indices[b_take]
    a_take = np.repeat(np.arange(a.nvals, dtype=np.int64), lens)
    return rows, cols, b_take, a_take


def expand_products(a: CSRMatrix, b: CSRMatrix, semiring: Semiring):
    """Materialise all partial products of ``A ⊗ B``.

    Returns ``(rows, cols, prods)`` — one entry per FLOP, ordered by A's
    storage order (row-major, so ``rows`` is nondecreasing).
    """
    rows, cols, b_take, a_take = expand_structure(a, b)
    prods = np.asarray(semiring.mult(a.values[a_take], b.values[b_take]))
    return rows, cols, prods


def mask_keys_for(mask: CSRMatrix, desc: Descriptor) -> np.ndarray:
    """Sorted flat keys where a non-complemented mask allows output.

    Returns None-equivalent (empty) only when mask has no allowed entries;
    callers must check ``desc.complement_mask`` before using this (a
    complemented mask cannot prune this way).
    """
    return mask_truthy(mask.flat_keys(), mask.values, desc.structural_mask)


def _sorted_reduce_flat(nrows, ncols, keys, prods, semiring, out_type) -> CSRMatrix:
    """Fallback reduce when the dense flat-key accumulator is too large.

    For monoids with a dense-accumulator strategy the keys are *compacted*
    (``np.unique``) and reduced with the **same** strategy the dense path
    uses, over the compressed keyspace.  This keeps every per-key
    accumulation order identical between the two branches, which matters
    for inexact monoids: float64 ``PLUS`` via ``bincount`` folds
    sequentially while ``np.add.reduceat`` folds pairwise, so mixing the
    two makes a row's bits depend on which branch the *whole matrix*
    selected — batch-of-k SpMM would stop being row-identical to batch-of-1
    (the contract :mod:`repro.serve`'s coalescer and ``ppr_batch`` rely
    on).  Monoids with no dense strategy take the stable sort +
    :func:`segment_reduce` path, unchanged.
    """
    fn = reduce_strategy(semiring.add)
    if fn is not None:
        uniq, inv = np.unique(keys, return_inverse=True)
        acc = fn(inv.astype(np.int64, copy=False), prods, uniq.size, semiring.add)
        return CSRMatrix.from_flat_keys(nrows, ncols, uniq, acc, out_type)
    order = np.argsort(keys, kind="stable")  # gbsan: ok(argsort) -- generic fallback; hot shapes take the sort-free fastpath
    keys = keys[order]
    prods = prods[order]
    starts = run_starts(keys)
    out_vals = segment_reduce(prods, starts, semiring.add, out_type.dtype)
    return CSRMatrix.from_flat_keys(nrows, ncols, keys[starts], out_vals, out_type)


def _expand_keys_ws(a: CSRMatrix, b: CSRMatrix):
    """Workspace-backed expansion: ``(keys, a_take, b_take, total)`` or None.

    The flat output key plus the two value-gather maps of every partial
    product, in A-storage (row-major) order — semantically the same stream
    :func:`expand_structure` produces, but every O(FLOPs) array is the
    diff+cumsum formulation of ``np.repeat`` written into a reusable
    :func:`~.fastpath.scratch` buffer, so steady-state calls fault no fresh
    pages.  Views are valid until the next call.
    """
    lo_all = b.indptr[a.indices]
    lens_all = b.indptr[a.indices + 1] - lo_all
    # Segments must be non-empty for the diff trick (duplicate segment
    # starts would collide); A entries whose B row is empty contribute
    # nothing anyway.
    src = np.flatnonzero(lens_all)
    if src.size == 0:
        return None
    lo = lo_all[src]
    lens = lens_all[src]
    total = int(lens.sum())
    bounds = np.cumsum(lens[:-1]) if lens.size > 1 else np.empty(0, np.int64)

    # b_take: lo[s] + within-segment offset — ones, rebased at each start.
    b_take = scratch("spgemm.b_take", total, np.int64)
    b_take.fill(1)
    b_take[0] = lo[0]
    if bounds.size:
        b_take[bounds] = lo[1:] - lo[:-1] - (lens[:-1] - 1)
    np.cumsum(b_take, out=b_take)

    # a_take: repeat(src, lens) — piecewise constant via diffs.
    a_take = scratch("spgemm.a_take", total, np.int64)
    a_take.fill(0)
    a_take[0] = src[0]
    if bounds.size:
        a_take[bounds] = src[1:] - src[:-1]
    np.cumsum(a_take, out=a_take)

    # keys: repeat(row(i) * ncols, lens) + B's column ids.
    a_rows = np.repeat(np.arange(a.nrows, dtype=np.int64), a.row_degrees())
    base = a_rows[src] * np.int64(b.ncols)
    keys = scratch("spgemm.keys", total, np.int64)
    keys.fill(0)
    keys[0] = base[0]
    if bounds.size:
        keys[bounds] = base[1:] - base[:-1]
    np.cumsum(keys, out=keys)
    cols = scratch("spgemm.cols", total, np.int64)
    np.take(b.indices, b_take, out=cols)
    np.add(keys, cols, out=keys)
    return keys, a_take, b_take, total


def _pair_count_ok(semiring: Semiring, a: CSRMatrix, out_type: GrBType) -> bool:
    """May ``PLUS`` over the value-blind ``PAIR`` multiply reduce to pure
    counting?  Only where an integer count round-trips exactly through the
    value domain (integers, or float64 with its 2^53 integer range)."""
    if semiring.add.op.name != "PLUS" or semiring.mult.name != "PAIR":
        return False

    def exact(dt: np.dtype) -> bool:
        return dt.kind in "iu" or dt == np.float64

    return exact(np.dtype(a.values.dtype)) and exact(np.dtype(out_type.dtype))


def spgemm_masked_esr(
    a: CSRMatrix,
    b: CSRMatrix,
    semiring: Semiring,
    out_type: GrBType,
    allowed_keys: np.ndarray,
) -> CSRMatrix:
    """Masked SpGEMM: drop partial products outside ``allowed_keys`` *before*
    computing them — the dominant cost when the mask is sparse (triangle
    counting's ``C<L> = L ⊗ L``).  ``allowed_keys`` are sorted flat row-major
    keys.
    """
    if a.nvals == 0 or b.nvals == 0 or allowed_keys.size == 0:
        return CSRMatrix.empty(a.nrows, b.ncols, out_type)
    expanded = _expand_keys_ws(a, b)
    if expanded is None:
        return CSRMatrix.empty(a.nrows, b.ncols, out_type)
    keys, a_take, b_take, _ = expanded
    nslots = allowed_keys.size
    # Fused membership + slot lookup: one slot-map probe answers both "is
    # this coordinate allowed" and "which accumulator slot".
    keep, pos = probe(allowed_keys, keys, int(a.nrows) * int(b.ncols))
    slots = pos[keep]
    if _pair_count_ok(semiring, a, out_type):
        # Counting semiring: the reduction is a histogram of slots — no
        # value gather, no multiply, no accumulator scatter.
        counts = np.bincount(slots, minlength=nslots)
        idx = np.flatnonzero(counts).astype(np.int64)
        if idx.size == 0:
            return CSRMatrix.empty(a.nrows, b.ncols, out_type)
        return CSRMatrix.from_flat_keys(
            a.nrows, b.ncols, allowed_keys[idx], counts[idx], out_type
        )
    if slots.size == 0:
        return CSRMatrix.empty(a.nrows, b.ncols, out_type)
    # Only surviving coordinates are ever multiplied.
    prods = np.asarray(
        semiring.mult(a.values[a_take[keep]], b.values[b_take[keep]])
    )
    # Reduce into mask-slot space: each kept key's position in allowed_keys
    # is its accumulator slot, so the dense accumulator is nnz(M)-sized no
    # matter how large the output keyspace is.
    fast = fast_reduce_by_key(slots, prods, nslots, semiring.add)
    if fast is not None:
        slot_idx, out_vals = fast
        return CSRMatrix.from_flat_keys(
            a.nrows, b.ncols, allowed_keys[slot_idx], out_vals, out_type
        )
    return _sorted_reduce_flat(
        a.nrows, b.ncols, keys[keep], prods, semiring, out_type
    )


def spgemm_esr(
    a: CSRMatrix,
    b: CSRMatrix,
    semiring: Semiring,
    out_type: GrBType,
) -> CSRMatrix:
    """Expand–reduce SpGEMM producing canonical CSR (sort-free when the
    output keyspace affords a dense accumulator, sorted otherwise)."""
    if a.nvals == 0 or b.nvals == 0:
        return CSRMatrix.empty(a.nrows, b.ncols, out_type)
    rows, cols, prods = expand_products(a, b, semiring)
    if rows.size == 0:
        return CSRMatrix.empty(a.nrows, b.ncols, out_type)
    keys = rows * np.int64(b.ncols) + cols
    keyspace = int(a.nrows) * int(b.ncols)
    if dense_keyspace_ok(keyspace, keys.size):
        fast = fast_reduce_by_key(keys, prods, keyspace, semiring.add)
        if fast is not None:
            out_keys, out_vals = fast
            return CSRMatrix.from_flat_keys(a.nrows, b.ncols, out_keys, out_vals, out_type)
    return _sorted_reduce_flat(a.nrows, b.ncols, keys, prods, semiring, out_type)
