"""Property tests for the slot-map probe and the bitmap union merge.

``probe`` and ``contains`` must agree bitwise with ``np.searchsorted``
membership and ``union_merge`` with ``np.union1d``, on both sides of
``PROBE_CAP`` (dense workspace below it, sort + search above it).  The
per-thread slot map, whose bytes double as the presence bitmap, must be
all zeros after every call — including after an operator that raises in a
kernel built on it — because the next probe relies on that invariant.
The kernels that replaced their own hashing and binary-search merges are
checked against a plain-Python loop oracle, with a non-commutative
operator and an int → float output domain.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.cpu.ewise import ewise_add_indexed, ewise_mult_indexed
from repro.containers import probe as probe_mod
from repro.containers.probe import PROBE_CAP, contains, probe, union_merge
from repro.core.accumulate import _accumulate
from repro.core.operators import MINUS, PLUS, BinaryOp
from repro.core.union_op import _union_indexed


def _ws_clean() -> bool:
    return not probe_mod._WS.slots.any()


@pytest.fixture(autouse=True)
def _fresh_workspace(monkeypatch):
    """Each test grows its own map; the session's (all zeros) comes back after."""
    assert _ws_clean()
    monkeypatch.setattr(probe_mod._WS, "slots", np.zeros(0, dtype=np.int32))
    yield
    assert _ws_clean()


def _canon(values) -> np.ndarray:
    return np.array(sorted(set(values)), dtype=np.int64)


@st.composite
def index_sets(draw, max_size=40):
    """(domain, a, b): two canonical index arrays over one domain."""
    domain = draw(st.integers(1, 200))
    idx = st.integers(0, domain - 1)
    a = _canon(draw(st.lists(idx, max_size=max_size)))
    b = _canon(draw(st.lists(idx, max_size=max_size)))
    return domain, a, b


def _oracle_probe(hay, needles):
    pos = np.searchsorted(hay, needles)
    hit = np.zeros(needles.size, dtype=bool)
    if hay.size:
        hit = hay[np.minimum(pos, hay.size - 1)] == needles
    return hit, np.where(hit, pos, -1)


def _check_probe(hay, needles, domain):
    hit, pos = probe(hay, needles, domain)
    want_hit, want_pos = _oracle_probe(hay, needles)
    assert hit.dtype == np.bool_
    np.testing.assert_array_equal(hit, want_hit)
    np.testing.assert_array_equal(pos, want_pos)
    assert _ws_clean()
    member = contains(hay, needles, domain)
    assert member.dtype == np.bool_
    np.testing.assert_array_equal(member, want_hit)
    assert _ws_clean()


def _check_union(a, b, domain):
    union, a_at, b_at = union_merge(a, b, domain)
    want = np.union1d(a, b)
    assert union.dtype == want.dtype == np.int64
    assert union.tobytes() == want.tobytes()
    np.testing.assert_array_equal(union[a_at], a)
    np.testing.assert_array_equal(union[b_at], b)
    assert _ws_clean()


# Edge shapes: an empty side, disjoint inputs, identical inputs.
EDGES = [
    (10, [], []),
    (10, [], [0, 3, 9]),
    (10, [1, 2, 3], []),
    (10, [0, 2, 4], [1, 3, 5]),
    (10, [0, 4, 9], [0, 4, 9]),
    (1, [0], [0]),
]


class TestProbe:
    @settings(max_examples=150, deadline=None)
    @given(index_sets(), st.data())
    def test_matches_searchsorted(self, sets, data):
        domain, hay, _ = sets
        needles = np.array(
            data.draw(st.lists(st.integers(0, domain - 1), max_size=60)), dtype=np.int64
        )  # any order, repeats allowed
        _check_probe(hay, needles, domain)

    @pytest.mark.parametrize("domain,a,b", EDGES)
    def test_edges(self, domain, a, b):
        a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
        _check_probe(a, b, domain)
        _check_probe(b, a, domain)

    @pytest.mark.parametrize("domain", [PROBE_CAP, PROBE_CAP + 1])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_at_and_above_cap(self, domain, data):
        # Indices near both ends of the domain; cap + 1 takes the fallback.
        idx = st.one_of(st.integers(0, 64), st.integers(domain - 64, domain - 1))
        hay = _canon(data.draw(st.lists(idx, max_size=30)))
        needles = np.array(data.draw(st.lists(idx, max_size=30)), dtype=np.int64)
        _check_probe(hay, needles, domain)


class TestUnionMerge:
    @settings(max_examples=150, deadline=None)
    @given(index_sets())
    def test_matches_union1d(self, sets):
        _check_union(sets[1], sets[2], sets[0])

    @pytest.mark.parametrize("domain,a,b", EDGES)
    def test_edges(self, domain, a, b):
        _check_union(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), domain)

    @pytest.mark.parametrize("domain", [PROBE_CAP, PROBE_CAP + 1])
    @pytest.mark.parametrize("dense", [False, True])
    def test_at_and_above_cap(self, domain, dense, monkeypatch):
        if dense:
            # Force the bitmap wherever the cap allows it.
            monkeypatch.setattr(probe_mod, "UNION_DENSITY", domain)
        a = np.array([0, 5, domain - 2, domain - 1], dtype=np.int64)
        b = np.array([5, 6, domain - 1], dtype=np.int64)
        _check_union(a, b, domain)

    @settings(max_examples=60, deadline=None)
    @given(index_sets())
    def test_bitmap_and_sort_paths_agree(self, sets):
        domain, a, b = sets
        old = probe_mod.UNION_DENSITY
        try:
            probe_mod.UNION_DENSITY = 0
            fallback = union_merge(a, b, domain)
            probe_mod.UNION_DENSITY = domain + 1
            dense = union_merge(a, b, domain)
        finally:
            probe_mod.UNION_DENSITY = old
        for x, y in zip(fallback, dense):
            _same_bits(x, y)


# ---------------------------------------------------------------------------
# Kernels built on the primitives vs a loop oracle
# ---------------------------------------------------------------------------


def _loop_add(a, av, b, bv, op, out_dtype):
    """eWiseAdd: lone entries pass through, shared ones get op(a, b)."""
    da = dict(zip(a.tolist(), av))
    db = dict(zip(b.tolist(), bv))
    keys = sorted(set(da) | set(db))
    out = np.empty(len(keys), dtype=out_dtype)
    for k, key in enumerate(keys):
        if key in da and key in db:
            out[k] = op(np.asarray([da[key]]), np.asarray([db[key]]))[0]
        else:
            out[k] = da[key] if key in da else db[key]
    return np.array(keys, dtype=np.int64), out


def _values(draw, n, kind):
    if kind == "i":
        return np.array(draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n)), dtype=np.int64)
    return np.array(
        draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=n, max_size=n)),
        dtype=np.float64,
    )


def _same_bits(x, y):
    assert x.dtype == y.dtype
    assert x.tobytes() == y.tobytes()


class TestKernels:
    @staticmethod
    def _check_add(domain, a, av, b, bv, op):
        for out_dtype in (av.dtype, np.dtype(np.float64)):  # int -> float output
            want_idx, want_vals = _loop_add(a, av, b, bv, op, out_dtype)
            idx, vals = ewise_add_indexed(a, av, b, bv, op, out_dtype, domain)
            _same_bits(idx, want_idx)
            _same_bits(vals, want_vals)
            # The write pipeline's accumulate is the same union, C on the left.
            z_idx, z_vals = _accumulate(a, av, b, bv, op, out_dtype, domain)
            _same_bits(z_idx, want_idx)
            _same_bits(z_vals, want_vals)

    @settings(max_examples=100, deadline=None)
    @given(index_sets(), st.sampled_from([MINUS, PLUS]), st.sampled_from(["i", "f"]), st.data())
    def test_ewise_add_matches_loop(self, sets, op, kind, data):
        domain, a, b = sets
        av, bv = _values(data.draw, a.size, kind), _values(data.draw, b.size, kind)
        self._check_add(domain, a, av, b, bv, op)

    @pytest.mark.parametrize("domain,a,b", EDGES)
    def test_ewise_add_edges(self, domain, a, b):
        a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
        av, bv = np.arange(a.size, dtype=np.int64) + 10, np.arange(b.size, dtype=np.int64)
        self._check_add(domain, a, av, b, bv, MINUS)

    @settings(max_examples=100, deadline=None)
    @given(index_sets(), st.data())
    def test_ewise_mult_matches_loop(self, sets, data):
        domain, a, b = sets
        av, bv = _values(data.draw, a.size, "i"), _values(data.draw, b.size, "i")
        idx, vals = ewise_mult_indexed(a, av, b, bv, MINUS, np.dtype(np.float64), domain)
        db = dict(zip(b.tolist(), bv.tolist()))
        want = [(k, x - db[k]) for k, x in zip(a.tolist(), av.tolist()) if k in db]
        np.testing.assert_array_equal(idx, [k for k, _ in want])
        _same_bits(vals, np.array([v for _, v in want], dtype=np.float64))

    @settings(max_examples=100, deadline=None)
    @given(index_sets(), st.data())
    def test_ewise_union_fills_then_applies(self, sets, data):
        domain, a, b = sets
        av, bv = _values(data.draw, a.size, "i"), _values(data.draw, b.size, "i")
        idx, vals = _union_indexed(a, av, 100, b, bv, 7, MINUS, np.dtype(np.float64), domain)
        da, db = dict(zip(a.tolist(), av.tolist())), dict(zip(b.tolist(), bv.tolist()))
        keys = sorted(set(da) | set(db))
        np.testing.assert_array_equal(idx, keys)
        want = [da.get(k, 100) - db.get(k, 7) for k in keys]
        _same_bits(vals, np.array(want, dtype=np.float64))

    def test_raising_operator_leaves_workspace_clean(self):
        def boom(x, y):
            raise ZeroDivisionError("operator failed")

        bad = BinaryOp("BOOM", boom)
        a = np.array([1, 3, 5], dtype=np.int64)
        b = np.array([3, 4, 5], dtype=np.int64)
        v = np.array([1.0, 2.0, 3.0])
        for kernel in (ewise_add_indexed, ewise_mult_indexed):
            with pytest.raises(ZeroDivisionError):
                kernel(a, v, b, v, bad, np.dtype(np.float64), 8)
            assert _ws_clean()
        with pytest.raises(ZeroDivisionError):
            _accumulate(a, v, b, v, bad, np.dtype(np.float64), 8)
        with pytest.raises(ZeroDivisionError):
            _union_indexed(a, v, 0.0, b, v, 0.0, bad, np.dtype(np.float64), 8)
        assert _ws_clean()
        # The next call sees an all-zero map and answers correctly.
        idx, vals = ewise_add_indexed(a, v, b, v, PLUS, np.dtype(np.float64), 8)
        np.testing.assert_array_equal(idx, [1, 3, 4, 5])
        np.testing.assert_array_equal(vals, [1.0, 3.0, 2.0, 6.0])
