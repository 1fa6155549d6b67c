"""Tests of the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import repro as gb  # noqa: E402
from repro.gpu.costmodel import CostModel  # noqa: E402

from perfbench import calibrate, device, inputs, oracles, runner, spans, stats, workloads  # noqa: E402


# -- span self time ------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0, 100) ⊃ a [10, 60) ⊃ b [20, 30); root ⊃ c [70, 90)
    start = np.array([0, 10, 20, 70])
    end = np.array([100, 60, 30, 90])
    parent = np.array([-1, 0, 1, 0])
    assert spans.self_times(start, end, parent).tolist() == [30.0, 40.0, 10.0, 20.0]


def test_layer_self_times_partition_the_root_span():
    tracer = spans.Tracer()

    def leaf():
        return sum(range(2000))

    w_leaf = tracer.wrap(leaf, "leaf", "inner")
    w_mid = tracer.wrap(lambda: w_leaf() + w_leaf(), "mid", "outer")
    root = tracer.begin_op(0)
    w_mid()
    w_mid()
    tracer.close(root)
    totals = tracer.layer_totals()
    assert totals["inner"][0] == 4 and totals["outer"][0] == 2
    cols = tracer.columns()
    root_ns = float(cols["end_ns"][0] - cols["start_ns"][0])
    summed = sum(s for _, s in totals.values()) * 1e9
    assert summed == pytest.approx(root_ns, rel=1e-9)
    assert all(s >= 0 for _, s in totals.values())
    assert set(cols["op"].tolist()) == {0}


def test_wrappers_record_nothing_outside_an_op_and_uninstall_cleanly():
    from repro.core import operations
    from repro.gpu.profiler import Profiler

    be = gb.get_backend("cuda_sim")
    before = (operations.mxv, Profiler.kernel_time_us, vars(Profiler)["record"])
    tracer = spans.Tracer()
    tracer.prepare(spans.layer_targets(be))
    tracer.install()
    try:
        assert operations.mxv is not before[0]
        assert "mxv" in vars(be)
        assert Profiler().kernel_time_us == 0.0  # wrapped property, outside an op
        assert len(tracer.start) == 0
    finally:
        tracer.remove()
    assert operations.mxv is before[0]
    assert vars(Profiler)["record"] is before[2]
    assert "mxv" not in vars(be)


# -- tail rule -------------------------------------------------------------------


def test_tail_has_ten_samples_beyond_it():
    xs = list(range(1, 101))
    value, pct, n = stats.tail(xs)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(1 for x in xs if x > value) == 10


def test_tail_small_samples():
    assert stats.tail(list(range(11)))[0:2] == (0, 100.0 / 11)
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    with pytest.raises(ValueError):
        stats.tail([])


# -- machine-speed scale ---------------------------------------------------------


def test_host_figures_do_not_move_with_machine_speed():
    class Fixed:
        round_len = 2

        def sim_summary(self):
            return {"ops_per_s": 100.0, "p50_us": 1.0, "tail_us": 2.0, "tail_pct": 100.0, "samples": 1}

    def run(slowdown):
        # Every CPU time and every probe takes `slowdown` times as long.
        ops = [slowdown * t for t in (0.001, 0.002, 0.004) * 8]
        return {
            "host": ops,
            "wall": ops,
            "rounds": {False: [slowdown * 0.003] * 12, True: []},
            "wall_rounds": [slowdown * 0.003] * 12,
            "probes": [slowdown * calibrate.REFERENCE_S] * 12,
        }

    base, _ = runner.end_to_end(Fixed(), run(1.0), [1.0], [1.0])
    slow, record = runner.end_to_end(Fixed(), run(1.7), [1.7], [1.7])
    for key in ("setup_s", "host_ops_per_s", "host_p50_ms", "host_tail_ms", "host_sim_ratio"):
        assert slow[key] == pytest.approx(base[key], rel=1e-12)
    assert record["cpu"]["ops_per_s"] == pytest.approx(base["host_ops_per_s"] / 1.7)


def test_probe_times_fixed_work():
    probe = calibrate.Probe()
    assert all(0.0 < probe() < 5.0 for _ in range(3))


# -- oracles -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_graph():
    n, rows, cols = inputs.rmat_edges(8, 8, inputs.rng_for(7, "test"))
    return n, rows, cols, oracles.adjacency(n, rows, cols)


def test_oracles_accept_the_program_and_reject_planted_errors(small_graph):
    n, rows, cols, a = small_graph
    g = gb.Matrix.from_lists(rows, cols, np.ones(rows.size), n, n, gb.FP64)
    src = int(rows[0])
    with gb.use_backend("cuda_sim"):
        levels = gb.algorithms.bfs_levels(g, src).container
        ranks = gb.algorithms.pagerank(g, 0.85, tol=0.0, max_iter=20).container
        labels = gb.algorithms.connected_components(g).container
        tri = gb.algorithms.triangle_count(g)

    want = oracles.bfs_levels(a, src)
    assert oracles.levels_match(levels.indices, levels.values, want)
    bad = levels.values.copy()
    bad[-1] += 1
    assert not oracles.levels_match(levels.indices, bad, want)

    pr = oracles.pagerank(a, 0.85, 20)
    assert oracles.dense_close(ranks.indices, ranks.values, pr, oracles.FIXED_ITER_L1)
    bad = ranks.values.copy()
    bad[0] += 1e-6
    assert not oracles.dense_close(ranks.indices, bad, pr, oracles.FIXED_ITER_L1)

    cc = oracles.component_labels(a)
    assert oracles.levels_match(labels.indices, labels.values, cc)
    assert not oracles.levels_match(labels.indices, labels.values + 1, cc)

    assert tri == oracles.triangle_count(a) == oracles.triangle_count(a, block=7)
    assert tri + 1 != oracles.triangle_count(a)


def test_ppr_and_feature_oracles_match_the_serving_engine(small_graph):
    from repro.serve import BatchPolicy, FeatureQuery, GraphService, PprQuery

    n, rows, cols, a = small_graph
    g = gb.Matrix.from_lists(rows, cols, np.ones(rows.size), n, n, gb.FP64)
    svc = GraphService(backend="cuda_sim", policy=BatchPolicy(4, 10.0))
    svc.register_graph(g)
    src = int(rows[3])
    r_ppr = svc.submit("t", PprQuery(src, iters=5), arrival_us=0.0)
    r_feat = svc.submit("t", FeatureQuery(src), arrival_us=1.0)
    svc.drain()
    want = oracles.ppr(a, src, 0.85, 5)
    res = r_ppr.result
    assert oracles.dense_close(res.indices, res.values, want, oracles.FIXED_ITER_L1)
    assert not oracles.dense_close(res.indices, res.values * 1.001, want, oracles.FIXED_ITER_L1)
    want_feat = oracles.vertex_features(a, src)
    assert np.array_equal(r_feat.result.values, want_feat)
    assert not np.array_equal(r_feat.result.values, want_feat + [0.0, 1.0])


def test_workload_check_counts_a_planted_wrong_answer():
    workloads.reset_program()
    wl = workloads.Analytics(3)  # small inputs instead of build()
    n, rows, cols = inputs.rmat_edges(8, 8, inputs.rng_for(3, "x"))
    wl._edges = (n, rows, cols, n, rows, cols)
    wl.sources = inputs.pick_sources(rows, 4, inputs.rng_for(3, "y"))
    wl.g = wl.g_tc = gb.Matrix.from_lists(rows, cols, np.ones(rows.size), n, n, gb.FP64)
    wl.prepare_oracle()
    with gb.use_backend("cuda_sim"):
        outs = [wl.op(i)() for i in range(wl.round_len)]
    assert [wl.check(i, o) for i, o in enumerate(outs)] == [0] * wl.round_len
    assert wl.check(wl.round_len - 1, outs[-1] + 1) == 1  # wrong triangle count
    outs[4].values[0] *= 2  # wrong PageRank
    assert wl.check(4, outs[4]) == 1


# -- device attribution --------------------------------------------------------------


def test_cost_attribution_conserves_kernel_time_with_replays(small_graph):
    n, rows, cols, _ = small_graph
    g = gb.Matrix.from_lists(rows, cols, np.ones(rows.size), n, n, gb.FP64)
    workloads.reset_program()
    be = gb.get_backend("cuda_sim")
    attribution = device.CostAttribution()
    original = CostModel.kernel_time_us
    attribution.install()
    try:
        s0 = device.snapshot(be, attribution)
        with gb.use_backend(be):
            gb.algorithms.pagerank(g, tol=0.0, max_iter=10).container
            gb.algorithms.bfs_levels(g, int(rows[0])).container
            gb.algorithms.triangle_count(g)
        d = device.diff(device.snapshot(be, attribution), s0)
    finally:
        attribution.remove()
    assert CostModel.kernel_time_us is original
    assert d["replays"] >= 1  # a captured loop was aggregated
    assert d["memory_us"] + d["compute_us"] > 0
    assert device.conservation_error(d) <= device.CONSERVATION_RTOL
    d["compute_us"] += 1.0  # a misattributed microsecond is caught
    assert device.conservation_error(d) > device.CONSERVATION_RTOL
