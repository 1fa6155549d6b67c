"""CPU backend internals: segments, take_ranges, direction heuristic,
and the pull kernel's all-hit path."""

import numpy as np
import pytest

from repro.backends.cpu.segments import run_starts, segment_reduce, ufunc_for
from repro.backends.cpu import spmv
from repro.backends.cpu.spmv import (
    choose_direction,
    mask_row_candidates,
    row_gather_product,
    take_ranges,
)
from repro.containers.csr import CSRMatrix
from repro.containers.sparsevec import SparseVector
from repro.core.descriptor import DEFAULT, Descriptor
from repro.core.monoid import (
    ANY_MONOID,
    MAX_MONOID,
    MIN_MONOID,
    Monoid,
    PLUS_MONOID,
)
from repro.core.operators import FIRST, MINUS, SECOND, binary_op
from repro.core.semiring import MIN_PLUS, PLUS_TIMES, Semiring
from repro.types import FP64, INT64


class TestRunStarts:
    def test_basic(self):
        keys = np.array([0, 0, 1, 3, 3, 3])
        np.testing.assert_array_equal(run_starts(keys), [0, 2, 3])

    def test_all_distinct(self):
        np.testing.assert_array_equal(run_starts(np.array([1, 2, 3])), [0, 1, 2])

    def test_all_same(self):
        np.testing.assert_array_equal(run_starts(np.array([7, 7, 7])), [0])

    def test_empty(self):
        assert run_starts(np.array([], dtype=np.int64)).size == 0


class TestSegmentReduce:
    def test_plus(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        out = segment_reduce(v, np.array([0, 2]), PLUS_MONOID, np.float64)
        np.testing.assert_array_equal(out, [3.0, 7.0])

    def test_min_max(self):
        v = np.array([3.0, 1.0, 5.0, 2.0])
        starts = np.array([0, 2])
        np.testing.assert_array_equal(
            segment_reduce(v, starts, MIN_MONOID, np.float64), [1.0, 2.0]
        )
        np.testing.assert_array_equal(
            segment_reduce(v, starts, MAX_MONOID, np.float64), [3.0, 5.0]
        )

    def test_first_second_any(self):
        v = np.array([10.0, 20.0, 30.0, 40.0])
        starts = np.array([0, 2])
        first_m = Monoid("F", FIRST, lambda t: t.cast(0))
        second_m = Monoid("S", SECOND, lambda t: t.cast(0))
        np.testing.assert_array_equal(
            segment_reduce(v, starts, first_m, np.float64), [10.0, 30.0]
        )
        np.testing.assert_array_equal(
            segment_reduce(v, starts, second_m, np.float64), [20.0, 40.0]
        )
        np.testing.assert_array_equal(
            segment_reduce(v, starts, ANY_MONOID, np.float64), [10.0, 30.0]
        )

    def test_custom_monoid_python_fallback(self):
        gcd = binary_op("TEST_GCD_SEG", np.gcd, commutative=True, associative=True)
        # np.gcd IS a ufunc, so force the fallback with a plain lambda.
        fold = binary_op(
            "TEST_FOLD_SEG", lambda x, y: x * 10 + y, associative=True
        )
        m = Monoid("FOLD_M", fold, lambda t: t.cast(0))
        v = np.array([1, 2, 3, 4], dtype=np.int64)
        out = segment_reduce(v, np.array([0, 2]), m, np.int64)
        np.testing.assert_array_equal(out, [12, 34])

    def test_empty(self):
        out = segment_reduce(np.array([]), np.array([], dtype=np.int64), PLUS_MONOID, np.float64)
        assert out.size == 0

    def test_ufunc_for(self):
        from repro.core.operators import PLUS, MINUS

        assert ufunc_for(PLUS) is np.add
        assert ufunc_for(MINUS) is np.subtract  # func itself is a ufunc


class TestTakeRanges:
    def test_gathers_slices(self):
        indptr = np.array([0, 2, 2, 5])
        take, lens = take_ranges(indptr, np.array([0, 2]))
        np.testing.assert_array_equal(take, [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(lens, [2, 3])

    def test_subset_rows(self):
        indptr = np.array([0, 2, 4, 6])
        take, lens = take_ranges(indptr, np.array([2, 0]))
        np.testing.assert_array_equal(take, [4, 5, 0, 1])
        np.testing.assert_array_equal(lens, [2, 2])

    def test_empty_rows(self):
        indptr = np.array([0, 0, 3])
        take, lens = take_ranges(indptr, np.array([0]))
        assert take.size == 0
        np.testing.assert_array_equal(lens, [0])

    def test_no_rows(self):
        take, lens = take_ranges(np.array([0, 1]), np.array([], dtype=np.int64))
        assert take.size == 0 and lens.size == 0


class TestMaskRowCandidates:
    def test_structural(self):
        m = SparseVector(5, [1, 3], [True, False], None)
        rows = mask_row_candidates(m, Descriptor(structural_mask=True))
        np.testing.assert_array_equal(rows, [1, 3])

    def test_valued_filters_false(self):
        m = SparseVector(5, [1, 3], [True, False], None)
        rows = mask_row_candidates(m, DEFAULT)
        np.testing.assert_array_equal(rows, [1])

    def test_complement_disables_pruning(self):
        m = SparseVector(5, [1], [True], None)
        assert mask_row_candidates(m, Descriptor(complement_mask=True)) is None

    def test_no_mask(self):
        assert mask_row_candidates(None, DEFAULT) is None


class TestChooseDirection:
    @pytest.fixture
    def a(self):
        # 100 rows, ~800 nnz.
        rng = np.random.default_rng(0)
        d = rng.random((100, 100))
        d[d < 0.92] = 0
        return CSRMatrix.from_dense(d)

    def test_explicit_passthrough(self, a):
        u = SparseVector.empty(100, FP64)
        assert choose_direction(a, u, None, DEFAULT, "push", True) == "push"
        assert choose_direction(a, u, None, DEFAULT, "pull", False) == "pull"

    def test_auto_small_frontier_pushes(self, a):
        u = SparseVector(100, [5], [1.0], FP64)
        assert choose_direction(a, u, None, DEFAULT, "auto", True) == "push"

    def test_auto_dense_frontier_pulls(self, a):
        u = SparseVector.full(100, 1.0, FP64)
        assert choose_direction(a, u, None, DEFAULT, "auto", True) == "pull"

    def test_auto_without_csc_never_pushes(self, a):
        u = SparseVector(100, [5], [1.0], FP64)
        assert choose_direction(a, u, None, DEFAULT, "auto", False) == "pull"


def _compacting_pull(csr, u, semiring, out_type, flip, rows):
    """The general pull path spelled out: search every stored column in u,
    compact the hits, reduce each row's run."""
    if rows is None:
        take = np.arange(csr.nvals, dtype=np.int64)
        row_ids = np.repeat(np.arange(csr.nrows, dtype=np.int64), np.diff(csr.indptr))
    else:
        take, lens = take_ranges(csr.indptr, rows)
        row_ids = np.repeat(rows, lens)
    cols = csr.indices[take]
    pos = np.searchsorted(u.indices, cols)
    hit = u.indices[np.minimum(pos, u.nvals - 1)] == cols
    a_vals, u_vals = csr.values[take][hit], u.values[pos[hit]]
    prods = np.asarray(semiring.mult(u_vals, a_vals) if flip else semiring.mult(a_vals, u_vals))
    keys = row_ids[hit]
    starts = run_starts(keys)
    return keys[starts], segment_reduce(prods, starts, semiring.add, out_type.dtype)


class TestPullAllHit:
    """Dense u, u covering exactly the stored columns (the all-hit path) and
    partial u (the compacting path) agree bitwise with the spelled-out
    compacting pull, with and without a row subset."""

    N = 40

    @pytest.fixture
    def csr(self):
        rng = np.random.default_rng(7)
        dense = rng.integers(1, 9, size=(self.N, self.N)) * (rng.random((self.N, self.N)) < 0.15)
        dense[::5] = 0  # empty rows
        dense[:, 3::7] = 0  # empty columns: covering u is not full
        return CSRMatrix.from_dense(dense.astype(np.int64))

    def _u(self, csr, kind):
        rng = np.random.default_rng(11)
        if kind == "dense":
            idx = np.arange(self.N, dtype=np.int64)
        elif kind == "covering":
            idx = np.unique(csr.indices)
            assert idx.size < self.N
        else:
            idx = np.flatnonzero(rng.random(self.N) < 0.5).astype(np.int64)
        return SparseVector(self.N, idx, rng.integers(-5, 6, size=idx.size), INT64)

    @pytest.mark.parametrize("kind", ["dense", "covering", "partial"])
    @pytest.mark.parametrize("with_rows", [False, True])
    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize(
        "semiring,out_type",
        [
            (PLUS_TIMES, INT64),
            (PLUS_TIMES, FP64),  # int -> float output
            (MIN_PLUS, INT64),
            (Semiring("PLUS_MINUS", PLUS_MONOID, MINUS), FP64),  # not commutative
        ],
    )
    def test_matches_compacting_path(self, csr, kind, with_rows, flip, semiring, out_type):
        u = self._u(csr, kind)
        rows = np.arange(0, self.N, 3, dtype=np.int64) if with_rows else None
        got = row_gather_product(csr, u, semiring, out_type, flip=flip, rows=rows)
        want_idx, want_vals = _compacting_pull(csr, u, semiring, out_type, flip, rows)
        assert got.indices.tobytes() == want_idx.astype(np.int64).tobytes()
        assert got.values.dtype == want_vals.dtype
        assert got.values.tobytes() == want_vals.tobytes()

    @pytest.mark.parametrize("kind", ["dense", "covering"])
    def test_all_hit_over_all_rows_needs_no_run_scan(self, csr, kind, monkeypatch):
        def no_scan(keys):
            raise AssertionError("all-hit pull over all rows scanned the keys")

        monkeypatch.setattr(spmv, "run_starts", no_scan)
        got = row_gather_product(csr, self._u(csr, kind), PLUS_TIMES, INT64)
        rows, starts = csr.nonempty_rows()
        np.testing.assert_array_equal(got.indices, rows)
        np.testing.assert_array_equal(starts, csr.indptr[rows])

    def test_nonempty_rows_cached_per_version(self, csr):
        first = csr.nonempty_rows()
        assert csr.nonempty_rows() is first
        csr.bump_version()
        assert csr.nonempty_rows() is not first
