"""Skew-aware load balancing: row binning, lane schedules, A/B parity.

Covers the lane tentpole end to end:

- binning invariants: ``plan_rows`` is an exact partition of the row set;
  ``merge_partitions`` sizes sum to the unit total and differ by at most
  one (the equal-work guarantee);
- seed parity: forced ``scalar``/``vector`` schedules reproduce the
  ``simt`` divergence functions exactly, and ``off`` mode returns each
  kernel's native lane;
- bit-identity: auto lane selection matches every forced lane (and the
  lanes-off baseline) result-for-result across semirings, masks, and
  push/pull directions, on cuda_sim and on multi_sim at P in {1, 2, 4},
  with launch-counter parity between auto and forced runs;
- the A/B switch: ``forced`` validation and scoping (``forced("off")`` is
  the lanes-off baseline), and the profiler's ``name[lane]`` labels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro as gb
from repro.backends.dispatch import get_backend, use_backend
from repro.core import operations as ops
from repro.core.semiring import LOR_LAND, MIN_PLUS, PLUS_TIMES
from repro.exceptions import InvalidValueError
from repro.generators.rmat import rmat
from repro.gpu import loadbalance as lb
from repro.gpu.device import get_device, reset_device
from repro.gpu.simt import divergence_thread_per_row, divergence_warp_per_row
from repro.testing.equivalence import assert_same


@pytest.fixture(autouse=True)
def fresh_device():
    get_backend("cuda_sim").evict_all()
    dev = reset_device()
    yield dev
    get_backend("cuda_sim").evict_all()
    reset_device()


row_lens = st.lists(st.integers(0, 2000), min_size=0, max_size=200).map(
    lambda xs: np.asarray(xs, dtype=np.int64)
)


# ---------------------------------------------------------------------------
# Binning invariants
# ---------------------------------------------------------------------------


class TestBinning:
    @given(lens=row_lens)
    @settings(max_examples=60, deadline=None)
    def test_plan_rows_is_exact_partition(self, lens):
        plan = lb.plan_rows(lens)
        merged = np.concatenate([plan.scalar, plan.vector, plan.merge])
        assert merged.size == lens.size
        assert np.array_equal(np.sort(merged), np.arange(lens.size))

    @given(lens=row_lens)
    @settings(max_examples=60, deadline=None)
    def test_bins_respect_cutoffs(self, lens):
        plan = lb.plan_rows(lens)
        sc, vc = lb.SCALAR_CUTOFF, lb.VECTOR_CUTOFF
        assert np.all(lens[plan.scalar] <= sc)
        assert np.all((lens[plan.vector] > sc) & (lens[plan.vector] <= vc))
        assert np.all(lens[plan.merge] > vc)

    @given(units=st.integers(0, 10**6), tile=st.integers(2, 4096))
    @settings(max_examples=80, deadline=None)
    def test_merge_partitions_equal_work(self, units, tile):
        parts = lb.merge_partitions(units, tile)
        assert int(parts.sum()) == units
        if parts.size:
            assert np.all(parts <= tile)
            assert int(parts.max()) - int(parts.min()) <= 1

    def test_label_degrades_sensibly(self):
        assert lb.plan_rows(np.zeros(0, dtype=np.int64)).label == "scalar"
        assert lb.plan_rows(np.array([1, 2, 3])).label == "scalar"
        assert lb.plan_rows(np.array([10, 100])).label == "vector"
        assert lb.plan_rows(np.array([1000])).label == "merge"
        assert lb.plan_rows(np.array([1, 1000])).label == "binned"


# ---------------------------------------------------------------------------
# Seed parity: forced single lanes == the simt divergence functions
# ---------------------------------------------------------------------------


class TestSchedules:
    @given(lens=row_lens)
    @settings(max_examples=60, deadline=None)
    def test_scalar_matches_thread_per_row(self, lens):
        sched = lb.schedule(lens, "scalar")
        assert sched.divergence == divergence_thread_per_row(
            lens.astype(np.float64), 32
        )
        assert sched.threads == max(int(lens.size), 1) * 32
        assert sched.extra_read_parts == ()

    @given(lens=row_lens)
    @settings(max_examples=60, deadline=None)
    def test_vector_matches_warp_per_row(self, lens):
        sched = lb.schedule(lens, "vector")
        assert sched.divergence == divergence_warp_per_row(
            lens.astype(np.float64), 32
        )
        assert sched.extra_read_parts == ()

    @given(lens=row_lens)
    @settings(max_examples=60, deadline=None)
    def test_schedules_well_formed(self, lens):
        for lane in ("scalar", "vector", "merge", "binned"):
            sched = lb.schedule(lens, lane)
            assert sched.divergence >= 1.0
            assert sched.threads >= 1
            for nbytes, cls in sched.extra_read_parts:
                assert nbytes >= 0.0 and cls in ("sequential", "gather")

    def test_unknown_lane_rejected(self):
        with pytest.raises(InvalidValueError):
            lb.schedule(np.array([1.0]), "warp")

    def test_merge_divergence_immune_to_skew(self):
        # One hub plus many singletons: thread-per-row serialises hard,
        # merge-path only pays path-length + bookkeeping overhead.
        skewed = np.array([4096] + [1] * 127, dtype=np.int64)
        scalar = lb.schedule(skewed, "scalar")
        merge = lb.schedule(skewed, "merge")
        assert merge.divergence < scalar.divergence / 4


# ---------------------------------------------------------------------------
# Lane choice and the A/B switch
# ---------------------------------------------------------------------------


class TestChoice:
    def test_off_mode_keeps_native(self):
        lens = np.array([1, 1000])
        with lb.forced("off"):
            assert lb.choose_lanes(lens, native="vector") == "vector"
            assert lb.choose_lanes(lens, native="scalar") == "scalar"
            assert lb.current_mode() == "off"
        assert lb.current_mode() == "auto"

    def test_forced_mode_pins_lane(self):
        lens = np.array([1, 1, 1])
        for lane in lb.LANES:
            with lb.forced(lane):
                assert lb.choose_lanes(lens) == lane

    def test_auto_short_circuits_on_nnz_max(self):
        # nnz_max <= SCALAR_CUTOFF: no binning pass needed at all.
        assert lb.choose_lanes(np.array([1, 2, 3]), nnz_max=3) == "scalar"

    def test_auto_empty_returns_native(self):
        assert lb.choose_lanes(np.zeros(0), native="vector") == "vector"

    def test_forced_rejects_unknown(self):
        with pytest.raises(InvalidValueError):
            with lb.forced("warp"):
                pass  # pragma: no cover
        assert lb.current_mode() == "auto"


# ---------------------------------------------------------------------------
# Bit-identity across lanes, semirings, masks, and backends
# ---------------------------------------------------------------------------


def _skewed_graph():
    return rmat(scale=8, edge_factor=8, seed=7, a=0.57, weighted=True)


def _kernel_launch_count(dev):
    return sum(1 for r in dev.profiler.records if r.kind == "kernel")


class TestBitIdentity:
    @pytest.mark.parametrize("semiring", [PLUS_TIMES, MIN_PLUS, LOR_LAND])
    @pytest.mark.parametrize("direction", ["push", "pull"])
    def test_auto_matches_forced_cuda_sim(self, semiring, direction):
        g = _skewed_graph()
        n = g.nrows
        rng = np.random.default_rng(11)
        idx = np.sort(rng.choice(n, n // 3, replace=False))
        u = gb.Vector.from_lists(idx, np.ones(idx.size), n, gb.FP64)

        def run(mode):
            get_backend("cuda_sim").evict_all()
            reset_device()
            with lb.forced(mode), use_backend("cuda_sim"):
                w = gb.Vector.sparse(gb.FP64, n)
                ops.mxv(w, g, u, semiring, direction=direction)
            return w, _kernel_launch_count(get_device())

        # All modes run the identical semantic function, so even the
        # float PLUS fold is bit-for-bit reproducible, not just the
        # exact MIN_PLUS / LOR_LAND folds.
        ref, launches_off = run("off")
        for mode in ("auto", "scalar", "vector", "merge"):
            got, launches = run(mode)
            assert_same(got, ref, exact=True)
            assert launches == launches_off

    @pytest.mark.parametrize("masked", [False, True])
    def test_auto_matches_forced_masked_mxm(self, masked):
        g = rmat(scale=6, edge_factor=8, seed=3, a=0.57, weighted=True)
        mask = g if masked else None

        def run(mode):
            get_backend("cuda_sim").evict_all()
            reset_device()
            with lb.forced(mode), use_backend("cuda_sim"):
                c = gb.Matrix.sparse(gb.FP64, g.nrows, g.ncols)
                if masked:
                    ops.mxm(c, g, g, MIN_PLUS, mask=mask, desc=gb.STRUCTURE_MASK)
                else:
                    ops.mxm(c, g, g, MIN_PLUS)
            return c, _kernel_launch_count(get_device())

        ref, launches_off = run("off")
        for mode in ("auto", "scalar", "vector", "merge"):
            got, launches = run(mode)
            assert_same(got, ref, exact=True)
            assert launches == launches_off

    @pytest.mark.parametrize("nparts", [1, 2, 4])
    def test_auto_matches_forced_multi_sim(self, nparts):
        g = _skewed_graph()
        n = g.nrows
        src = 0

        backend = get_backend("multi_sim").configure(nparts=nparts)
        # Warm one-time aux builds (distributed transpose) that are cached
        # across resets, so every measured mode sees the same cache state.
        with use_backend("multi_sim"):
            gb.algorithms.bfs_levels(g, src)

        def run(mode):
            backend.reset()
            with lb.forced(mode), use_backend("multi_sim"):
                levels = gb.algorithms.bfs_levels(g, src)
            return levels, backend.metrics()["kernel_launches"]

        ref, launches_off = run("off")
        for mode in ("auto", "scalar", "merge"):
            got, launches = run(mode)
            assert_same(got, ref, exact=True)
            # Lanes reschedule kernels; they never change the sequence.
            assert launches == launches_off

    def test_bfs_levels_auto_vs_scalar_bit_identical(self):
        g = _skewed_graph()
        with lb.forced("scalar"), use_backend("cuda_sim"):
            ref = gb.algorithms.bfs_levels(g, 0)
        get_backend("cuda_sim").evict_all()
        reset_device()
        with use_backend("cuda_sim"):
            got = gb.algorithms.bfs_levels(g, 0)
        assert got.to_lists() == ref.to_lists()


# ---------------------------------------------------------------------------
# Profiler lane labels
# ---------------------------------------------------------------------------


class TestLaneLabels:
    def test_by_kernel_carries_lane_label_on_skewed_push(self):
        g = _skewed_graph()
        n = g.nrows
        u = gb.Vector.from_lists([0, 1, 2], [1.0, 1.0, 1.0], n, gb.FP64)
        with use_backend("cuda_sim"):
            w = gb.Vector.sparse(gb.FP64, n)
            ops.mxv(w, g, u, PLUS_TIMES, direction="push")
        names = set(get_device().profiler.by_kernel())
        labeled = {nm for nm in names if nm.startswith("spmsv_push[")}
        # The skewed frontier should have left thread-per-row for a
        # labeled lane ("spmsv_push[binned]" or a single non-native lane).
        assert labeled, names

    def test_forced_native_lane_keeps_bare_name(self):
        g = _skewed_graph()
        n = g.nrows
        u = gb.Vector.from_lists([0, 1, 2], [1.0, 1.0, 1.0], n, gb.FP64)
        with lb.forced("scalar"), use_backend("cuda_sim"):
            w = gb.Vector.sparse(gb.FP64, n)
            ops.mxv(w, g, u, PLUS_TIMES, direction="push")
        names = set(get_device().profiler.by_kernel())
        assert "spmsv_push" in names
        assert not any(nm.startswith("spmsv_push[") for nm in names)
