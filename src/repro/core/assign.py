"""Assign operations: write a vector/matrix/scalar into a region of another.

Semantics follow ``GxB_subassign`` (the variant GBTL-era code used): the
mask and the ``replace`` flag act only *inside* the assigned region
``I`` (×``J``); entries outside the region are never touched.  Within the
region the standard pipeline applies:

- no accumulator → region positions allowed by the mask take the source
  entry, or become empty when the source has none there;
- accumulator → source entries merge into existing entries;
- ``replace`` → region entries whose mask is false are deleted.

Index lists must be duplicate-free (spec requirement); ``None`` means "all
indices" (``GrB_ALL``).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from ..backends.dispatch import current_backend
from ..containers.csr import CSRMatrix
from ..containers.probe import contains, probe
from ..containers.sparsevec import SparseVector
from ..exceptions import DimensionMismatchError, IndexOutOfBoundsError, InvalidValueError
from ..lazy import schedule as _lz
from .accumulate import _note_result, merge_disjoint
from .descriptor import DEFAULT, Descriptor
from .mask import flat_keys, matrix_mask_at, vector_mask_at
from .matrix import Matrix
from .operators import BinaryOp
from .vector import Vector

__all__ = [
    "assign",
    "assign_scalar",
    "assign_row",
    "assign_col",
    "merge_region_vector",
]


def _check_mask_v(mask, size: int) -> None:
    """Eager mask-shape validation (the region merge runs deferred)."""
    if mask is not None and mask.size != size:
        raise DimensionMismatchError(
            "mask shape", expected=(size,), actual=(mask.size,)
        )


def _index_array(idx, dim: int, what: str) -> np.ndarray:
    if idx is None:
        return np.arange(dim, dtype=np.int64)
    arr = np.asarray(idx, dtype=np.int64)
    if arr.size:
        if arr.min() < 0 or arr.max() >= dim:
            raise IndexOutOfBoundsError(f"{what} index outside [0, {dim})")
        if np.unique(arr).size != arr.size:
            raise InvalidValueError(f"duplicate {what} indices in assign")
    return arr


def _merge_region(
    c_idx, c_vals, t_idx, t_vals, c_in_region, mask_at, accum, desc, domain, out_dtype
):
    """Write (t_idx, t_vals) over canonical (c_idx, c_vals); ``c_in_region``
    flags C's entries inside the region.  Returns sorted (indices, values)."""
    t_vals = np.asarray(t_vals).astype(out_dtype, copy=False)
    # Sort the incoming entries (they are region-mapped, order arbitrary).
    order = np.argsort(t_idx, kind="stable")
    t_idx, t_vals = t_idx[order], t_vals[order]
    allowed_t = mask_at(t_idx)
    t_idx, t_vals = t_idx[allowed_t], t_vals[allowed_t]

    c_masked = mask_at(c_idx)
    if accum is None:
        # Region ∧ mask-true positions are fully rewritten by T.
        drop = c_in_region & c_masked
    else:
        # Accumulate: existing entries survive; T merges in.
        both, pos = probe(t_idx, c_idx, domain)
        drop = np.zeros(c_idx.size, dtype=bool)
        if both.any():
            sel = pos[both]
            merged = np.asarray(accum(c_vals[both], t_vals[sel])).astype(out_dtype)
            t_vals = t_vals.copy()
            t_vals[sel] = merged
            drop = both  # replaced by merged T entries
    if desc.replace:
        drop = drop | (c_in_region & ~c_masked)
    # T lands only where C's entry was dropped: the two sets are disjoint.
    return merge_disjoint(c_idx[~drop], c_vals[~drop], t_idx, t_vals)


def _merge_region_vector(
    c: SparseVector,
    t_idx: np.ndarray,
    t_vals: np.ndarray,
    region: np.ndarray,
    mask,
    accum: Optional[BinaryOp],
    desc: Descriptor,
) -> SparseVector:
    """Write (t_idx, t_vals) into ``c`` restricted to sorted ``region``."""
    idx, vals = _merge_region(
        c.indices, c.values, t_idx, t_vals, contains(region, c.indices, c.size),
        lambda pos: vector_mask_at(mask, desc, pos), accum, desc, c.size, c.type.dtype,
    )
    return SparseVector(c.size, idx, vals, c.type)


# Public alias: fused operations (see :mod:`repro.core.fused`) replay the
# scalar-assign region merge at the container level without re-validating
# index lists the caller already knows are canonical.
merge_region_vector = _merge_region_vector


def _merge_region_matrix(
    c: CSRMatrix,
    t_rows: np.ndarray,
    t_cols: np.ndarray,
    t_vals: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    mask,
    accum: Optional[BinaryOp],
    desc: Descriptor,
) -> CSRMatrix:
    """Matrix analogue of :func:`_merge_region_vector` via flat keys."""
    c_rows = np.repeat(np.arange(c.nrows, dtype=np.int64), c.row_degrees())
    in_region = contains(rows, c_rows, c.nrows) & contains(cols, c.indices, c.ncols)
    keys, vals = _merge_region(
        c.flat_keys(), c.values, flat_keys(t_rows, t_cols, c.ncols), t_vals, in_region,
        lambda pos: matrix_mask_at(mask, desc, pos), accum, desc, c.nrows * c.ncols,
        c.type.dtype,
    )
    return CSRMatrix.from_flat_keys(c.nrows, c.ncols, keys, vals, c.type)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def assign(
    out,
    src,
    indices=None,
    cols=None,
    mask=None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT,
):
    """``out(indices[, cols])<mask> accum= src`` — region assignment.

    Vector form: ``assign(w, u, I)`` with ``len(I) == u.size``.
    Matrix form: ``assign(C, A, I, J)`` with ``(len(I), len(J)) == A.shape``.
    """
    if isinstance(out, Vector):
        idx = _index_array(indices, out.size, "target")
        if idx.size != src.size:
            raise DimensionMismatchError(
                "assign source size", expected=idx.size, actual=src.size
            )
        _check_mask_v(mask, out.size)
        be = current_backend()
        region = np.sort(idx)

        def run(inp, params):
            sc = inp["src"]
            be.charge_assign(sc.nvals, inp["out"])
            return _note_result(_merge_region_vector(
                inp["out"],
                idx[sc.indices],
                sc.values,
                region,
                inp.get("mask"),
                accum,
                desc,
            ))

        return _lz.emit(
            "assign_v",
            run,
            {
                "src": _lz.arg(src),
                "mask": _lz.arg_mask(mask),
                "out": _lz.arg(out),
            },
            {"desc": desc},
            (out,),
        )
    r = _index_array(indices, out.nrows, "row")
    s = _index_array(cols, out.ncols, "column")
    if (r.size, s.size) != src.shape:
        raise DimensionMismatchError(
            "assign source shape", expected=(r.size, s.size), actual=src.shape
        )
    sc = src.container
    current_backend().charge_assign(sc.nvals, out)
    src_rows = np.repeat(np.arange(sc.nrows, dtype=np.int64), sc.row_degrees())
    return out._replace(
        _note_result(_merge_region_matrix(
            out.container,
            r[src_rows],
            s[sc.indices],
            sc.values,
            np.sort(r),
            np.sort(s),
            mask.container if mask is not None else None,
            accum,
            desc,
        ))
    )


def assign_scalar(
    out,
    value: Any,
    indices=None,
    cols=None,
    mask=None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT,
):
    """``out(indices[, cols])<mask> accum= value`` — constant fill.

    Unlike matrix/vector assign, every region position receives an entry.
    """
    if isinstance(out, Vector):
        idx = _index_array(indices, out.size, "target")
        _check_mask_v(mask, out.size)
        vals = np.full(idx.size, out.type.cast(value), dtype=out.type.dtype)
        be = current_backend()
        region = np.sort(idx)
        # A full-region unmasked, unaccumulated fill overwrites every
        # position: the result is independent of the prior values, which is
        # what lets the optimizer treat the fill as a pure constant source
        # (dead-materialization + fill→ewise fusion).
        fill = indices is None and mask is None and accum is None

        def run(inp, params):
            be.charge_assign(idx.size, inp["out"])
            return _note_result(_merge_region_vector(
                inp["out"],
                idx.copy(),
                vals,
                region,
                inp.get("mask"),
                accum,
                desc,
            ))

        return _lz.emit(
            "assign_scalar_v",
            run,
            {
                "mask": _lz.arg_mask(mask),
                "out": out._container if fill else _lz.arg(out),
            },
            {"fill": fill, "value": value, "n": out.size, "desc": desc},
            (out,),
        )
    r = _index_array(indices, out.nrows, "row")
    s = _index_array(cols, out.ncols, "column")
    rr = np.repeat(r, s.size)
    cc = np.tile(s, r.size)
    vals = np.full(rr.size, out.type.cast(value), dtype=out.type.dtype)
    current_backend().charge_assign(rr.size, out)
    return out._replace(
        _note_result(_merge_region_matrix(
            out.container,
            rr,
            cc,
            vals,
            np.sort(r),
            np.sort(s),
            mask.container if mask is not None else None,
            accum,
            desc,
        ))
    )


def assign_row(
    c: Matrix,
    u: Vector,
    i: int,
    cols=None,
    mask: Optional[Vector] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT,
) -> Matrix:
    """``C(i, cols)<mask> accum= u`` (GrB_Row_assign).

    The mask, when given, is a vector over the row's columns; it is lifted
    to a one-row matrix mask internally.
    """
    mat_mask = _lift_row_mask(mask, c, i)
    s = _index_array(cols, c.ncols, "column")
    if s.size != u.size:
        raise DimensionMismatchError("row assign size", expected=s.size, actual=u.size)
    uc = u.container
    current_backend().charge_assign(uc.nvals, c)
    return c._replace(
        _note_result(_merge_region_matrix(
            c.container,
            np.full(uc.nvals, i, dtype=np.int64),
            s[uc.indices],
            uc.values,
            np.array([i], dtype=np.int64),
            np.sort(s),
            mat_mask,
            accum,
            desc,
        ))
    )


def assign_col(
    c: Matrix,
    u: Vector,
    j: int,
    rows=None,
    mask: Optional[Vector] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT,
) -> Matrix:
    """``C(rows, j)<mask> accum= u`` (GrB_Col_assign)."""
    mat_mask = _lift_col_mask(mask, c, j)
    r = _index_array(rows, c.nrows, "row")
    if r.size != u.size:
        raise DimensionMismatchError("col assign size", expected=r.size, actual=u.size)
    uc = u.container
    current_backend().charge_assign(uc.nvals, c)
    return c._replace(
        _note_result(_merge_region_matrix(
            c.container,
            r[uc.indices],
            np.full(uc.nvals, j, dtype=np.int64),
            uc.values,
            np.sort(r),
            np.array([j], dtype=np.int64),
            mat_mask,
            accum,
            desc,
        ))
    )


def _lift_row_mask(mask: Optional[Vector], c: Matrix, i: int) -> Optional[CSRMatrix]:
    """Vector mask over columns -> C-shaped one-row matrix mask."""
    if mask is None:
        return None
    mc = mask.container
    indptr = np.zeros(c.nrows + 1, dtype=np.int64)
    indptr[i + 1 :] = mc.nvals
    return CSRMatrix(c.nrows, c.ncols, indptr, mc.indices.copy(), mc.values.copy(), mc.type)


def _lift_col_mask(mask: Optional[Vector], c: Matrix, j: int) -> Optional[CSRMatrix]:
    """Vector mask over rows -> C-shaped one-column matrix mask."""
    if mask is None:
        return None
    mc = mask.container
    indptr = np.zeros(c.nrows + 1, dtype=np.int64)
    indptr[mc.indices + 1] = 1
    np.cumsum(indptr, out=indptr)
    cols = np.full(mc.nvals, j, dtype=np.int64)
    return CSRMatrix(c.nrows, c.ncols, indptr, cols, mc.values.copy(), mc.type)
