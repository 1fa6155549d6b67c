"""Seeded input generators.

Every input the program receives — graphs, BFS sources, the serving trace
and the churn edge batches — is generated here from the workload seed with
plain NumPy, so the program under test never sees the seed and a change to
``repro.generators`` or ``repro.serve.traffic`` cannot change what is
measured.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

RMAT_ABC = (0.57, 0.19, 0.19)  # Graph500 quadrant probabilities


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, input stream)."""
    tag = int.from_bytes(stream.encode(), "little") % (2**63)
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def rmat_edges(scale: int, edge_factor: int, rng: np.random.Generator) -> Tuple[int, np.ndarray, np.ndarray]:
    """Symmetric R-MAT graph: ``(n, rows, cols)`` sorted, no self-loops or duplicates."""
    n = 1 << scale
    m = edge_factor * n
    a, b, c = RMAT_ABC
    rows = np.zeros(m, dtype=np.int64)
    cols = np.zeros(m, dtype=np.int64)
    for _ in range(scale):
        row_bit = rng.random(m) >= a + b
        r2 = rng.random(m)
        col_bit = np.where(row_bit, r2 >= c / (1.0 - a - b), r2 >= a / (a + b))
        rows = (rows << 1) | row_bit
        cols = (cols << 1) | col_bit
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    keys = np.unique(np.concatenate([rows * n + cols, cols * n + rows]))
    return n, keys // n, keys % n


def pick_sources(rows: np.ndarray, count: int, rng: np.random.Generator) -> List[int]:
    """``count`` distinct non-isolated vertices (BFS from an isolated vertex is trivial)."""
    candidates = np.unique(rows)
    return [int(v) for v in rng.choice(candidates, size=count, replace=False)]


# --------------------------------------------------------------------------
# Serving trace (fig9-shaped)
# --------------------------------------------------------------------------

MIX = (("khop", 0.65), ("bfs", 0.10), ("ppr", 0.15), ("feature", 0.10))
KHOP_HOPS = (1, 2, 3)
PPR_DAMPING = 0.85
PPR_ITERS = 5


def _zipf_cdf(n: int, skew: float) -> np.ndarray:
    w = np.arange(1, n + 1, dtype=np.float64) ** -float(skew)
    cdf = np.cumsum(w)
    return cdf / cdf[-1]


def trace_chunks(
    seed: int,
    n_vertices: int,
    qps: float,
    n_tenants: int,
    n_users: int,
    source_skew: float,
    chunk: int = 500,
) -> Iterator[List[Tuple[float, int, str, int, int]]]:
    """Endless Poisson/Zipf trace, in chunks of ``(arrival_us, tenant, kind, source, hops)``.

    Sources follow a Zipf(``source_skew``) user popularity; tenants are
    Zipf(1.0)-skewed.  As in the fig9 trace, user ranks map onto vertices
    through a seeded permutation mod ``n_vertices``, so the hot user head
    lands on a scattered set of vertices.  Each chunk draws its own
    permutation: at skew 1.5 the top three users send ~60% of the queries,
    so one placement would let three random vertices set a whole run's
    cost, while a run of many chunks averages over many placements.
    """
    rng = rng_for(seed, "trace")
    user_cdf = _zipf_cdf(n_users, source_skew)
    tenant_cdf = _zipf_cdf(n_tenants, 1.0)
    kinds = [k for k, _ in MIX]
    probs = np.array([p for _, p in MIX])
    now = 0.0
    while True:
        arrivals = now + np.cumsum(rng.exponential(1e6 / qps, size=chunk))
        now = float(arrivals[-1])
        users = np.searchsorted(user_cdf, rng.random(chunk), side="right")
        sources = rng.permutation(n_vertices)[users % n_vertices]
        tenants = np.searchsorted(tenant_cdf, rng.random(chunk), side="right")
        kind_idx = rng.choice(len(kinds), size=chunk, p=probs)
        hops = rng.integers(0, len(KHOP_HOPS), size=chunk)
        yield [
            (
                float(arrivals[i]),
                int(tenants[i]),
                kinds[int(kind_idx[i])],
                int(sources[i]),
                KHOP_HOPS[int(hops[i])],
            )
            for i in range(chunk)
        ]


# --------------------------------------------------------------------------
# Churn edge batches
# --------------------------------------------------------------------------


class EdgeModel:
    """The benchmark's own copy of an undirected edge set under churn.

    Holds each edge once as ``(min, max)`` with O(1) uniform sampling, so
    deletes can be drawn from existing edges and the oracles can rebuild
    the current adjacency independently of the program.
    """

    def __init__(self, n: int, rows: np.ndarray, cols: np.ndarray) -> None:
        self.n = n
        upper = rows < cols
        self._edges: List[Tuple[int, int]] = list(
            zip(rows[upper].tolist(), cols[upper].tolist())
        )
        self._pos = {e: i for i, e in enumerate(self._edges)}

    def add(self, u: int, v: int) -> None:
        e = (min(u, v), max(u, v))
        if e not in self._pos:
            self._pos[e] = len(self._edges)
            self._edges.append(e)

    def remove(self, u: int, v: int) -> None:
        e = (min(u, v), max(u, v))
        i = self._pos.pop(e, None)
        if i is None:
            return
        last = self._edges.pop()
        if i < len(self._edges):
            self._edges[i] = last
            self._pos[last] = i

    def sample(self, count: int, rng: np.random.Generator) -> List[Tuple[int, int]]:
        idx = rng.choice(len(self._edges), size=count, replace=False)
        return [self._edges[int(i)] for i in idx]

    def symmetric_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        e = np.array(self._edges, dtype=np.int64).reshape(-1, 2)
        return (
            np.concatenate([e[:, 0], e[:, 1]]),
            np.concatenate([e[:, 1], e[:, 0]]),
        )


def churn_batch(
    model: EdgeModel, rng: np.random.Generator, pairs: int, delete_pairs: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One symmetric batch ``(rows, cols, is_insert)``; applies it to ``model``.

    ``pairs`` random undirected inserts (both directions, so 2·pairs edge
    ops) and ``delete_pairs`` deletes of existing undirected edges.
    """
    u = rng.integers(0, model.n, size=pairs)
    v = rng.integers(0, model.n, size=pairs)
    v = np.where(u == v, (v + 1) % model.n, v)
    deletes = model.sample(delete_pairs, rng) if delete_pairs else []
    du = np.array([a for a, _ in deletes], dtype=np.int64)
    dv = np.array([b for _, b in deletes], dtype=np.int64)
    for a, b in deletes:
        model.remove(a, b)
    for a, b in zip(u.tolist(), v.tolist()):
        model.add(a, b)
    rows = np.concatenate([du, dv, u, v])
    cols = np.concatenate([dv, du, v, u])
    is_insert = np.concatenate(
        [np.zeros(2 * du.size, dtype=bool), np.ones(2 * u.size, dtype=bool)]
    )
    return rows, cols, is_insert
