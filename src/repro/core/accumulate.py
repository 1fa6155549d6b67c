"""The GraphBLAS write pipeline: accumulate, mask, replace.

Every GraphBLAS operation ends the same way (spec §2.3): the computed result
``T`` is merged into the output ``C`` under the accumulator, the mask, and
the replace flag:

1. **accumulate** — ``Z = accum(C, T)`` elementwise-union when an accumulator
   is given (positions present in only one operand pass through), else
   ``Z = T``;
2. **mask/replace** — positions where the effective mask is true receive
   ``Z``'s entry (or become empty if ``Z`` has none); positions where it is
   false keep ``C``'s old entry, unless ``replace`` is set, in which case
   they become empty.

Backends compute only ``T``; this module implements the merge once,
vectorized over sorted index arrays, and both the vector and matrix paths
share :func:`_merge_indexed` (matrices go through flat row-major keys).
This centralisation is what guarantees bit-identical write semantics across
the reference, CPU, and simulated-GPU backends.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..containers.csr import CSRMatrix
from ..containers.probe import union_merge
from ..containers.sparsevec import SparseVector
from ..types import GrBType, promote
from .descriptor import DEFAULT, Descriptor
from .mask import check_mask_shape, matrix_mask_at, vector_mask_at
from .operators import BinaryOp

__all__ = ["merge_vector", "merge_matrix", "merge_disjoint", "union_apply"]


def _note_result(container):
    """Tell the active backend a merged output exists device-side.

    Backend kernels compute results *on the device*; the frontend merge is
    part of the same write pipeline, so its output should not be treated as
    host-only data that must be re-uploaded on next use.  Real backends
    ignore the hint; the simulated GPU marks the container resident without
    charging PCIe traffic (transfer elision).
    """
    from ..backends.dispatch import current_backend
    from ..gpu import reuse

    if reuse.elision_enabled():
        current_backend().note_result(container)
    return container


def _trivial_merge(mask, accum, desc: Descriptor) -> bool:
    """True when the pipeline reduces to "output := T cast to C's domain".

    With no mask every position is writable (complementing a missing mask
    is all-true here, see :func:`~repro.core.mask.vector_mask_at`) and with
    no accumulator old entries never survive, so the merged result *is* T.
    Returning T itself preserves container identity — and therefore device
    residency — across the write pipeline, which is what lets iterative
    algorithms skip per-iteration H2D re-uploads.
    """
    from ..gpu import reuse

    del desc  # replace flag is irrelevant once the mask admits everything
    return mask is None and accum is None and reuse.elision_enabled()


def union_apply(a_idx, a_vals, b_idx, b_vals, op, out_dtype, domain: int):
    """Union merge of two canonical (index, value) sets in ``[0, domain)``:
    lone entries pass through, shared indices get ``op(a, b)`` (if any)."""
    union, a_at, b_at = union_merge(a_idx, b_idx, domain)
    out = np.empty(union.size, dtype=out_dtype)
    out[a_at] = a_vals
    out[b_at] = b_vals
    if union.size < a_idx.size + b_idx.size:
        in_a = np.zeros(union.size, dtype=bool)
        in_a[a_at] = True
        in_b = np.zeros(union.size, dtype=bool)
        in_b[b_at] = True
        # Shared indices, ascending on both sides, pair up in order.
        shared_b = in_a[b_at]
        out[b_at[shared_b]] = np.asarray(op(a_vals[in_b[a_at]], b_vals[shared_b]))
    return union, out


def merge_disjoint(a_idx, a_vals, b_idx, b_vals):
    """Sorted merge of two canonical (index, value) sets with no shared index
    (a stable sort of two sorted runs is one linear merge)."""
    idx = np.concatenate([a_idx, b_idx])
    order = np.argsort(idx, kind="stable")
    return idx[order], np.concatenate([a_vals, b_vals])[order]


def _accumulate(
    c_idx: np.ndarray,
    c_vals: np.ndarray,
    t_idx: np.ndarray,
    t_vals: np.ndarray,
    accum: Optional[BinaryOp],
    out_dtype: np.dtype,
    domain: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Union-merge (C, T) under ``accum`` over sorted index arrays."""
    if accum is None:
        return t_idx, t_vals.astype(out_dtype, copy=False)
    return union_apply(c_idx, c_vals, t_idx, t_vals, accum, out_dtype, domain)


def _merge_indexed(
    c_idx: np.ndarray,
    c_vals: np.ndarray,
    t_idx: np.ndarray,
    t_vals: np.ndarray,
    mask_at,
    accum: Optional[BinaryOp],
    replace: bool,
    out_dtype: np.dtype,
    domain: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Shared core of the write pipeline over sorted index arrays.

    ``mask_at(positions) -> bool[len(positions)]`` evaluates the effective
    mask over ``[0, domain)``.  Returns the final sorted (indices, values).
    """
    z_idx, z_vals = _accumulate(c_idx, c_vals, t_idx, t_vals, accum, out_dtype, domain)
    # Mask-true positions take Z entries.
    z_keep = mask_at(z_idx)
    out_idx = z_idx[z_keep]
    out_vals = z_vals[z_keep]
    if not replace and c_idx.size:
        # Mask-false positions retain old C entries (disjoint from Z's).
        c_keep = ~mask_at(c_idx)
        keep_idx = c_idx[c_keep]
        if keep_idx.size:
            keep_vals = c_vals[c_keep].astype(out_dtype, copy=False)
            out_idx, out_vals = merge_disjoint(out_idx, out_vals, keep_idx, keep_vals)
    return out_idx, out_vals


def _output_type(c_type: GrBType, t_type: GrBType, accum: Optional[BinaryOp]) -> GrBType:
    """Domain of the written output: C's own domain (spec: output is typed)."""
    # The spec casts Z into C's domain on write; we honour C's domain so that
    # repeated accumulation does not silently widen the output.
    del t_type, accum
    return c_type


def merge_vector(
    c: SparseVector,
    t: SparseVector,
    mask: Optional[SparseVector] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT,
    share: bool = True,
) -> SparseVector:
    """Apply the write pipeline and return the new output vector.

    ``share=False`` forbids returning ``t`` itself (used when the caller
    passes a long-lived container — e.g. a cached transpose — that must not
    become aliased with a mutable output).
    """
    check_mask_shape(mask, (c.size,))
    if t.size != c.size:
        # Backends guarantee matching sizes; guard for direct callers.
        from ..exceptions import DimensionMismatchError

        raise DimensionMismatchError("result size", expected=c.size, actual=t.size)
    out_type = _output_type(c.type, t.type, accum)
    if share and _trivial_merge(mask, accum, desc):
        return _note_result(t.astype(out_type))
    idx, vals = _merge_indexed(
        c.indices,
        c.values,
        t.indices,
        t.values.astype(out_type.dtype, copy=False),
        lambda pos: vector_mask_at(mask, desc, pos),
        accum,
        desc.replace,
        out_type.dtype,
        c.size,
    )
    return _note_result(SparseVector(c.size, idx, vals, out_type))


def merge_matrix(
    c: CSRMatrix,
    t: CSRMatrix,
    mask: Optional[CSRMatrix] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT,
    share: bool = True,
) -> CSRMatrix:
    """Apply the write pipeline and return the new output matrix.

    ``share`` as in :func:`merge_vector`.
    """
    check_mask_shape(mask, c.shape)
    if t.shape != c.shape:
        from ..exceptions import DimensionMismatchError

        raise DimensionMismatchError("result shape", expected=c.shape, actual=t.shape)
    out_type = _output_type(c.type, t.type, accum)
    if share and _trivial_merge(mask, accum, desc):
        return _note_result(t.astype(out_type))
    keys, vals = _merge_indexed(
        c.flat_keys(),
        c.values,
        t.flat_keys(),
        t.values.astype(out_type.dtype, copy=False),
        lambda pos: matrix_mask_at(mask, desc, pos),
        accum,
        desc.replace,
        out_type.dtype,
        c.nrows * c.ncols,
    )
    return _note_result(CSRMatrix.from_flat_keys(c.nrows, c.ncols, keys, vals, out_type))
