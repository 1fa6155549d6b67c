"""Independent oracles: SciPy graph routines and plain NumPy power iteration.

Nothing here calls into ``repro`` — in particular none of the
``backends.cpu`` kernels — so a defect in a shared kernel cannot make the
program and its oracle agree on a wrong answer.  Each check returns True on
agreement; the runner counts a False toward ``error_rate``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

#: L1 distance allowed between a fixed-iteration PageRank/PPR and its
#: NumPy replay (same arithmetic, different summation order).
FIXED_ITER_L1 = 1e-9


def adjacency(n: int, rows: np.ndarray, cols: np.ndarray) -> sp.csr_matrix:
    """Unit-weight CSR adjacency (``A[i, j]`` present ⇒ edge i→j)."""
    a = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    a.sum_duplicates()
    a.data[:] = 1.0
    return a


def bfs_levels(a: sp.csr_matrix, source: int, max_level: Optional[int] = None) -> np.ndarray:
    """Hop distance from ``source`` (-1 where unreached or beyond ``max_level``)."""
    limit = np.inf if max_level is None else max_level + 0.5
    d = csgraph.dijkstra(a, directed=True, unweighted=True, indices=source, limit=limit)
    return np.where(np.isinf(d), -1, d).astype(np.int64)


def levels_match(idx: np.ndarray, vals: np.ndarray, expected: np.ndarray) -> bool:
    """Sparse ``(idx, vals)`` levels equal the dense oracle (−1 = absent)."""
    got = np.full(expected.size, -1, dtype=np.int64)
    got[np.asarray(idx, dtype=np.int64)] = np.asarray(vals, dtype=np.int64)
    return bool(np.array_equal(got, expected))


def component_labels(a: sp.csr_matrix) -> np.ndarray:
    """Minimum vertex id of each vertex's (weakly) connected component."""
    _, comp = csgraph.connected_components(a, directed=True, connection="weak")
    low = np.full(comp.max() + 1, a.shape[0], dtype=np.int64)
    np.minimum.at(low, comp, np.arange(a.shape[0], dtype=np.int64))
    return low[comp]


def pagerank(
    a: sp.csr_matrix, damping: float, iters: int, tol: float = 0.0
) -> np.ndarray:
    """Power iteration with uniform teleport and dangling mass spread uniformly.

    Stops after ``iters`` iterations or once the L1 step falls below ``tol``.
    """
    n = a.shape[0]
    outdeg = np.asarray(a.sum(axis=1)).ravel()
    dangling = outdeg == 0
    inv = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, outdeg))
    at = a.T.tocsr()
    r = np.full(n, 1.0 / n)
    for _ in range(iters):
        dmass = r[dangling].sum()
        r_new = damping * (at @ (r * inv)) + (1.0 - damping) / n + damping * dmass / n
        step = np.abs(r_new - r).sum()
        r = r_new
        if step < tol:
            break
    return r


def pagerank_bound(tol: float, damping: float) -> float:
    """L1 error allowed for a result whose last step was below ``tol``.

    The iteration contracts by ``damping`` in L1, so the distance to the
    fixpoint is at most ``damping/(1-damping)`` times the last step; twice
    that covers the oracle's own residual and rounding.
    """
    return 2.0 * tol * damping / (1.0 - damping) + FIXED_ITER_L1


def ppr(a: sp.csr_matrix, source: int, damping: float, iters: int) -> np.ndarray:
    """Personalized PageRank: teleport and dangling mass return to ``source``."""
    n = a.shape[0]
    outdeg = np.asarray(a.sum(axis=1)).ravel()
    dangling = outdeg == 0
    inv = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, outdeg))
    at = a.T.tocsr()
    r = np.zeros(n)
    r[source] = 1.0
    for _ in range(iters):
        dmass = r[dangling].sum()
        r = damping * (at @ (r * inv))
        r[source] += damping * dmass + (1.0 - damping)
    return r


def dense_close(idx: np.ndarray, vals: np.ndarray, expected: np.ndarray, l1: float) -> bool:
    """Sparse ``(idx, vals)`` matches the dense oracle: same support, L1 within ``l1``."""
    got = np.zeros(expected.size)
    got[np.asarray(idx, dtype=np.int64)] = np.asarray(vals, dtype=np.float64)
    support = np.zeros(expected.size, dtype=bool)
    support[np.asarray(idx, dtype=np.int64)] = True
    return bool(
        np.array_equal(support, expected != 0.0)
        and np.abs(got - expected).sum() <= l1
    )


def vertex_features(a: sp.csr_matrix, v: int) -> np.ndarray:
    """(out-degree, incident triangles) of vertex ``v`` in a symmetric graph.

    Each triangle through ``v`` is one edge among its neighbours, counted
    once per direction.
    """
    nbrs = a.indices[a.indptr[v]:a.indptr[v + 1]]
    return np.array([float(nbrs.size), float(a[nbrs][:, nbrs].nnz // 2)])


def triangle_count(a: sp.csr_matrix, block: int = 512) -> int:
    """Triangles of an undirected graph (each counted once).

    ``L·L ∘ L`` over the strict lower triangle, a block of rows at a time so
    the unmasked product never exists whole.
    """
    low = sp.tril(a, k=-1).tocsr()
    total = 0.0
    for r in range(0, low.shape[0], block):
        rows = low[r:r + block]
        total += (rows @ low).multiply(rows).sum()
    return int(round(total))
