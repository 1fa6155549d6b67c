"""cuda_sim work estimators: FLOPs/bytes/divergence respond to structure."""

import numpy as np
import pytest

import repro as gb
from repro.backends.cpu.spmv import take_ranges
from repro.backends.cuda_sim import kernels
from repro.backends.cuda_sim.kernels import (
    SPGEMM_HASH,
    SPGEMM_HASH_MASKED,
    SPMSV_PUSH,
    SPMV_CSR_VECTOR,
    TRANSPOSE_COUNTSORT,
    combine_coalescing,
)
from repro.containers.csr import CSRMatrix
from repro.containers.sparsevec import SparseVector
from repro.core.semiring import PLUS_TIMES
from repro.gpu import loadbalance
from repro.types import FP64


def dense_csr(n, density, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.random((n, n))
    m[m < 1 - density] = 0
    return CSRMatrix.from_dense(m)


def full_vec(n):
    return SparseVector.full(n, 1.0, FP64)


class TestSpmvWork:
    def test_flops_two_per_nnz(self):
        a = dense_csr(32, 0.2)
        w = SPMV_CSR_VECTOR.work(a, full_vec(32), PLUS_TIMES, FP64, False, None)
        assert w.flops == 2.0 * a.nvals

    def test_row_restriction_reduces_work(self):
        a = dense_csr(64, 0.2)
        full = SPMV_CSR_VECTOR.work(a, full_vec(64), PLUS_TIMES, FP64, False, None)
        sub = SPMV_CSR_VECTOR.work(
            a, full_vec(64), PLUS_TIMES, FP64, False, np.arange(8)
        )
        assert sub.flops < full.flops
        assert sub.bytes_read < full.bytes_read
        assert sub.threads < full.threads

    def test_short_rows_raise_divergence(self):
        uniform_short = CSRMatrix.from_dense(np.eye(64))  # rows of length 1
        # Native warp-per-row wastes 31 of 32 lanes on length-1 rows.
        with loadbalance.forced("vector"):
            w = SPMV_CSR_VECTOR.work(
                uniform_short, full_vec(64), PLUS_TIMES, FP64, False, None
            )
        assert w.divergence == pytest.approx(32.0)
        # The lane balancer routes uniformly-short rows to the scalar lane,
        # where equal-length rows have no warp serialisation at all.
        w_auto = SPMV_CSR_VECTOR.work(
            uniform_short, full_vec(64), PLUS_TIMES, FP64, False, None
        )
        assert w_auto.divergence == pytest.approx(1.0)

    def test_run_matches_semantics(self):
        a = dense_csr(16, 0.3)
        u = full_vec(16)
        out = SPMV_CSR_VECTOR.run(a, u, PLUS_TIMES, FP64, False, None)
        np.testing.assert_allclose(
            out.to_dense(0), a.to_dense() @ u.to_dense(), atol=1e-9
        )


class TestSpmsvWork:
    def test_work_scales_with_frontier_degree(self):
        a = dense_csr(64, 0.2, seed=1)
        small = SparseVector(64, [0], [1.0], FP64)
        big = SparseVector(64, np.arange(32), np.ones(32), FP64)
        w_small = SPMSV_PUSH.work(a, small, PLUS_TIMES, FP64, False)
        w_big = SPMSV_PUSH.work(a, big, PLUS_TIMES, FP64, False)
        assert w_big.flops > w_small.flops

    def test_skewed_frontier_rows_diverge(self):
        # One huge row + tiny rows in the frontier: thread-per-row skew.
        d = np.zeros((64, 64))
        d[0, :] = 1.0
        d[1:33, 0] = 1.0
        a = CSRMatrix.from_dense(d)
        u = SparseVector(64, np.arange(33), np.ones(33), FP64)
        with loadbalance.forced("scalar"):
            w = SPMSV_PUSH.work(a, u, PLUS_TIMES, FP64, False)
        assert w.divergence > 5.0
        # The balancer bins the hub row away from the singletons, cutting
        # the warp-serialisation penalty.
        w_auto = SPMSV_PUSH.work(a, u, PLUS_TIMES, FP64, False)
        assert w_auto.divergence < w.divergence


class TestSpgemmWork:
    def test_flops_count_partial_products(self):
        a = CSRMatrix.from_dense(np.ones((8, 8)))
        w = SPGEMM_HASH.work(a, a, PLUS_TIMES, FP64)
        assert w.flops == 2.0 * 8 * 8 * 8  # n³ products for dense

    def test_empty_matrix_zero_flops(self):
        a = CSRMatrix.empty(8, 8, FP64)
        w = SPGEMM_HASH.work(a, a, PLUS_TIMES, FP64)
        assert w.flops == 0.0

    @staticmethod
    def _expanded_products(a, b):
        """The per-row FLOP count read off the full expansion (the old way)."""
        _, lens = take_ranges(b.indptr, a.indices)
        row_flops = np.zeros(a.nrows, dtype=np.float64)
        if a.nvals:
            a_rows = np.repeat(np.arange(a.nrows, dtype=np.int64), np.diff(a.indptr))
            np.add.at(row_flops, a_rows, lens.astype(np.float64))
        return float(lens.sum()), row_flops

    @pytest.mark.parametrize("shape", [(12, 9, 14), (1, 5, 1), (6, 6, 6)])
    @pytest.mark.parametrize("lane", [None, "scalar", "vector", "merge"])
    def test_kernel_work_matches_expansion(self, shape, lane, monkeypatch):
        m, k, n = shape
        rng = np.random.default_rng(m * 100 + k)
        da = (rng.random((m, k)) < 0.4) * rng.random((m, k))
        db = (rng.random((k, n)) < 0.4) * rng.random((k, n))
        da[0] = 0  # an empty A row
        db[-1] = 0  # an empty B row
        a, b = CSRMatrix.from_dense(da), CSRMatrix.from_dense(db)
        empty = CSRMatrix.empty(m, k, FP64)
        allowed = np.arange(0, m * n, 3, dtype=np.int64)
        for lhs in (a, empty):
            calls = [
                lambda: kernels._spgemm_work(lhs, b, PLUS_TIMES, FP64, lane=lane),
                lambda: kernels._spgemm_masked_work(
                    lhs, b, PLUS_TIMES, FP64, allowed, lane=lane
                ),
            ]
            expanded, row_flops = kernels._spgemm_products(lhs, b)
            want_expanded, want_rows = self._expanded_products(lhs, b)
            assert expanded == want_expanded
            assert row_flops.tobytes() == want_rows.tobytes()
            new = [call() for call in calls]
            with monkeypatch.context() as mp:
                mp.setattr(kernels, "_spgemm_products", self._expanded_products)
                old = [call() for call in calls]
            assert new == old  # KernelWork is a dataclass: every field equal
        assert SPGEMM_HASH_MASKED.work is kernels._spgemm_masked_work


class TestTransposeWork:
    def test_bytes_scale_with_nnz(self):
        small = dense_csr(32, 0.1)
        big = dense_csr(32, 0.5)
        assert (
            TRANSPOSE_COUNTSORT.work(big).bytes_read
            > TRANSPOSE_COUNTSORT.work(small).bytes_read
        )


class TestCoalescingCombination:
    def test_weighted_mean(self):
        total, f = combine_coalescing([(300.0, "sequential"), (100.0, "atomic")])
        assert total == 400.0
        assert f == pytest.approx((300 * 1 + 100 * 32) / 400)

    def test_pure_classes(self):
        _, f_seq = combine_coalescing([(10.0, "sequential")])
        _, f_at = combine_coalescing([(10.0, "atomic")])
        assert f_seq == 1.0 and f_at == 32.0


class TestEndToEndTiming:
    def test_skewed_graph_slower_than_uniform_same_nnz(self):
        """The signature divergence result: same nnz, different time."""
        from repro.backends.dispatch import get_backend, use_backend
        from repro.core import operations as ops
        from repro.gpu.device import get_device, reset_device

        n = 512
        # Uniform: every row has 8 entries.
        rng = np.random.default_rng(3)
        cols = np.concatenate([rng.choice(n, 8, replace=False) for _ in range(n)])
        rows = np.repeat(np.arange(n), 8)
        uniform = gb.Matrix.from_lists(rows, cols, np.ones(rows.size), n, n)
        # Skewed: same nnz concentrated on a few huge rows + singletons.
        hub_rows = np.repeat(np.arange(8), (n * 8 - (n - 8)) // 8)
        tail_rows = np.arange(8, n)
        s_rows = np.concatenate([hub_rows, tail_rows])
        s_cols = rng.integers(0, n, s_rows.size)
        from repro.core.operators import FIRST

        skewed = gb.Matrix.from_lists(
            s_rows, s_cols, np.ones(s_rows.size), n, n, dup=FIRST
        )

        def sim_time(g, lane=None):
            reset_device()
            get_backend("cuda_sim").evict_all()
            u = gb.Vector.full(1.0, n, gb.FP64)
            import contextlib

            ctx = loadbalance.forced(lane) if lane else contextlib.nullcontext()
            with ctx, use_backend("cuda_sim"):
                w = gb.Vector.sparse(gb.FP64, n)
                ops.mxv(w, g, u, PLUS_TIMES, direction="pull")
            return get_device().profiler.kernel_time_us

        # Warp-per-row: the skewed graph's many length-1 rows waste lanes.
        assert sim_time(skewed, "vector") > sim_time(uniform, "vector")
        # Lane binning claws back most of that skew penalty.
        assert sim_time(skewed) < sim_time(skewed, "vector")
