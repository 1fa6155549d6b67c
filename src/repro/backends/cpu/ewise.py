"""Vectorized elementwise kernels (eWiseAdd / eWiseMult).

Both operands are canonical (sorted, unique indices), so union and
intersection are index merges done by :mod:`repro.containers.probe` —
a dense bitmap and slot map, no hashing, no binary search.  Matrices
reduce to the vector kernels via flat row-major keys (domain
``nrows * ncols``).
"""

from __future__ import annotations

import numpy as np

from ...containers.csr import CSRMatrix
from ...containers.probe import probe
from ...containers.sparsevec import SparseVector
from ...core.accumulate import union_apply
from ...core.operators import BinaryOp
from ...types import promote

__all__ = [
    "ewise_add_indexed",
    "ewise_mult_indexed",
    "ewise_add_vec",
    "ewise_mult_vec",
    "ewise_add_mat",
    "ewise_mult_mat",
]


def ewise_add_indexed(
    u_idx: np.ndarray,
    u_vals: np.ndarray,
    v_idx: np.ndarray,
    v_vals: np.ndarray,
    op: BinaryOp,
    out_dtype: np.dtype,
    domain: int,
):
    """Union merge over sorted index arrays in ``[0, domain)``."""
    return union_apply(u_idx, u_vals, v_idx, v_vals, op, out_dtype, domain)


def ewise_mult_indexed(
    u_idx: np.ndarray,
    u_vals: np.ndarray,
    v_idx: np.ndarray,
    v_vals: np.ndarray,
    op: BinaryOp,
    out_dtype: np.dtype,
    domain: int,
):
    """Intersection merge over sorted index arrays in ``[0, domain)``."""
    if u_idx.size == domain or v_idx.size == domain:
        # A full side intersects to the other side: gather the full side's
        # values at its indices, no probe and no compaction.
        if u_idx.size == domain:
            idx, lhs, rhs, kept = v_idx, u_vals[v_idx], v_vals, v_vals
        else:
            idx, lhs, rhs, kept = u_idx, u_vals, v_vals[u_idx], u_vals
        vals = np.asarray(op(lhs, rhs)).astype(out_dtype, copy=False)
        if np.may_share_memory(vals, kept):
            vals = vals.copy()  # FIRST/SECOND hand back an operand's values
        return idx, vals
    if u_idx.size > v_idx.size:
        # Probe the smaller set against the larger one.
        present, pos = probe(u_idx, v_idx, domain)
        idx = v_idx[present]
        lhs = u_vals[pos[present]]
        rhs = v_vals[present]
    else:
        present, pos = probe(v_idx, u_idx, domain)
        idx = u_idx[present]
        lhs = u_vals[present]
        rhs = v_vals[pos[present]]
    if idx.size == 0:
        return idx.astype(np.int64), np.empty(0, dtype=out_dtype)
    vals = np.asarray(op(lhs, rhs)).astype(out_dtype, copy=False)
    return idx, vals


def ewise_add_vec(u: SparseVector, v: SparseVector, op: BinaryOp) -> SparseVector:
    out_t = op.result_type(promote(u.type, v.type))
    idx, vals = ewise_add_indexed(
        u.indices, u.values, v.indices, v.values, op, out_t.dtype, u.size
    )
    return SparseVector(u.size, idx, vals, out_t)


def ewise_mult_vec(u: SparseVector, v: SparseVector, op: BinaryOp) -> SparseVector:
    out_t = op.result_type(promote(u.type, v.type))
    idx, vals = ewise_mult_indexed(
        u.indices, u.values, v.indices, v.values, op, out_t.dtype, u.size
    )
    return SparseVector(u.size, idx, vals, out_t)


def ewise_add_mat(a: CSRMatrix, b: CSRMatrix, op: BinaryOp) -> CSRMatrix:
    out_t = op.result_type(promote(a.type, b.type))
    keys, vals = ewise_add_indexed(
        a.flat_keys(), a.values, b.flat_keys(), b.values, op, out_t.dtype,
        a.nrows * a.ncols,
    )
    return CSRMatrix.from_flat_keys(a.nrows, a.ncols, keys, vals, out_t)


def ewise_mult_mat(a: CSRMatrix, b: CSRMatrix, op: BinaryOp) -> CSRMatrix:
    out_t = op.result_type(promote(a.type, b.type))
    keys, vals = ewise_mult_indexed(
        a.flat_keys(), a.values, b.flat_keys(), b.values, op, out_t.dtype,
        a.nrows * a.ncols,
    )
    return CSRMatrix.from_flat_keys(a.nrows, a.ncols, keys, vals, out_t)
