"""The three workloads: ``analytics``, ``serve`` and ``churn``.

Each workload builds its inputs from the seed (:mod:`perfbench.inputs`),
hands only those inputs to the program, and exposes an endless,
deterministic op sequence in fixed **rounds** — one period of the op mix —
so every run sees the same mix proportions whatever its length.  An op is
one call into the public API; its host latency is timed by the runner and
its result is checked here against :mod:`perfbench.oracles`, outside the
timed region.

Simulated-clock metrics and device counters are taken over the first
``sim_window`` ops only, so they are bit-identical across runs of a seed
no matter how many ops the host manages in the time budget.

Why these three (each stresses layers the others bypass):

- ``analytics`` — the paper's own evaluation on ``cuda_sim``: BFS and
  20-iteration PageRank on R-MAT s14, masked-SpGEMM triangle counting on
  s12.  Few launches per op (the PageRank loop is captured); drives
  core → lazy → backends → backends.cpu, bypasses serve/streaming/
  distributed.
- ``serve`` — a fig9-shaped Zipf trace through ``GraphService`` on
  ``cuda_sim``, below saturation so batches close on the wait timer and
  stay small: stresses the coalescer, engine, scheduler, per-batch
  ``busy_us`` accounting, per-launch bookkeeping and multi-source SpGEMM.
- ``churn`` — edge batches with inserts (every fourth also deletes) into a
  ``DynamicGraph`` on ``multi_sim`` P=2, with incremental BFS/CC/PageRank
  reads between batches: overlay merge, compaction, incremental vs
  fallback recompute, sharded comm and the pull-SpMV probe.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro as gb
from repro.gpu.device import reset_device
from repro.lazy import config as lazy_config
from repro.lazy import schedule

from . import device, inputs, oracles, stats

LAZY_MODE = "on"


def reset_program() -> None:
    """Fresh simulated devices and residency, so every setup starts cold."""
    gb.get_backend("cuda_sim").evict_all()
    reset_device()
    lazy_config.configure(mode=LAZY_MODE)


def _settled(container_of: Callable[[], Any]) -> Any:
    """Run, force the result, then barrier the lazy tape (all inside the timer)."""
    out = container_of()
    schedule.wait()
    return out


class SimMeter:
    """Cumulative charged device µs: the device clock on ``cuda_sim``, the
    cluster makespan (latest device clock) on ``multi_sim``."""

    def __init__(self, backend: Any) -> None:
        self._devices = device.devices_of(backend)

    def read(self) -> float:
        self._devices[0].profiler  # observation point: force pending work
        return max(d.clock_us for d in self._devices)


class Workload:
    """Base class: setup, the op sequence, checks and window bookkeeping."""

    name = ""
    backend_name = "cuda_sim"
    round_len = 1
    sim_window = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.backend = gb.get_backend(self.backend_name)
        self.sim_us: List[float] = []  # per-op charged µs, first sim_window ops
        self._meter: Optional[SimMeter] = None
        self._last = 0.0

    # -- lifecycle -----------------------------------------------------------

    def build(self) -> None:
        """Generate inputs and bring the program to steady state (timed as setup)."""
        raise NotImplementedError

    def prepare_oracle(self) -> None:
        """Precompute oracle state (not timed)."""

    def start(self) -> None:
        self._meter = SimMeter(self.backend)
        self._last = self._meter.read()

    def op(self, i: int) -> Callable[[], Any]:
        """The op to time; its inputs are prepared here, outside the timer."""
        raise NotImplementedError

    def check(self, i: int, out: Any) -> int:
        """Verify op ``i``'s output; returns the number of failures found."""
        raise NotImplementedError

    def after_op(self, i: int) -> None:
        """Per-op simulated cost for the first ``sim_window`` ops."""
        if i < self.sim_window and self._meter is not None:
            now = self._meter.read()
            self.sim_us.append(now - self._last)
            self._last = now

    def window_closed(self) -> bool:
        return True

    def finish(self) -> int:
        """Work after the timed loop (drains); returns failures found."""
        return 0

    # -- metrics -------------------------------------------------------------

    def sim_summary(self) -> Dict[str, Any]:
        """Simulated-clock end-to-end figures over the window.

        Percentiles cover the ops that charged device time; an op answered
        on the host alone (a batch absorbed by the overlay, a cached read)
        has no device latency, but still counts toward throughput.
        """
        total = sum(self.sim_us)
        lat = [x for x in self.sim_us if x > 0.0]
        value, pct, n = stats.tail(lat)
        return {
            "ops_per_s": len(self.sim_us) / (total / 1e6),
            "p50_us": stats.median(lat),
            "tail_us": value,
            "tail_pct": pct,
            "samples": n,
        }

    def layer_counters(self) -> Dict[str, float]:
        """Cumulative workload-specific counters (differenced over the window)."""
        return {}

    def layer_metrics(self, before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
        return {}

    def stamp(self) -> Dict[str, Any]:
        return {"backend": self.backend_name, "nparts": 1, "splitter": None}


# ----------------------------------------------------------------------------
# analytics
# ----------------------------------------------------------------------------


class Analytics(Workload):
    """BFS ×4 sources, PageRank ×20 iterations (s14) and triangle count (s12)."""

    name = "analytics"
    BFS_PER_ROUND = 4
    N_SOURCES = 64
    PR_ITERS = 20
    DAMPING = 0.85
    round_len = BFS_PER_ROUND + 2
    sim_window = 15 * round_len  # ≥ 11 PageRank ops, so the tail is a PageRank

    def build(self) -> None:
        rng = inputs.rng_for(self.seed, "analytics")
        n, rows, cols = inputs.rmat_edges(14, 8, rng)
        n_t, rows_t, cols_t = inputs.rmat_edges(12, 8, rng)
        self.sources = inputs.pick_sources(rows, self.N_SOURCES, rng)
        self._edges = (n, rows, cols, n_t, rows_t, cols_t)
        self.g = gb.Matrix.from_lists(rows, cols, np.ones(rows.size), n, n, gb.FP64)
        self.g_tc = gb.Matrix.from_lists(rows_t, cols_t, np.ones(rows_t.size), n_t, n_t, gb.FP64)
        # Upload both graphs and run each op kind once: residency, aux
        # caches and loop capture are warm before anything is timed.
        for k in range(self.round_len):
            self.op(k)()

    def prepare_oracle(self) -> None:
        n, rows, cols, n_t, rows_t, cols_t = self._edges
        self._a = oracles.adjacency(n, rows, cols)
        self._levels: Dict[int, np.ndarray] = {}
        self._pr = oracles.pagerank(self._a, self.DAMPING, self.PR_ITERS)
        self._tc = oracles.triangle_count(oracles.adjacency(n_t, rows_t, cols_t))

    def _kind(self, i: int) -> Tuple[str, int]:
        k = i % self.round_len
        if k < self.BFS_PER_ROUND:
            rnd = i // self.round_len
            return "bfs", self.sources[(rnd * self.BFS_PER_ROUND + k) % len(self.sources)]
        return ("pagerank", -1) if k == self.BFS_PER_ROUND else ("triangles", -1)

    def op(self, i: int) -> Callable[[], Any]:
        kind, src = self._kind(i)
        A = gb.algorithms
        g = self.g
        if kind == "bfs":
            return lambda: _settled(lambda: A.bfs_levels(g, src).container)
        if kind == "pagerank":
            return lambda: _settled(
                lambda: A.pagerank(g, self.DAMPING, tol=0.0, max_iter=self.PR_ITERS).container
            )
        g_tc = self.g_tc
        return lambda: _settled(lambda: A.triangle_count(g_tc))

    def check(self, i: int, out: Any) -> int:
        kind, src = self._kind(i)
        if kind == "bfs":
            want = self._levels.get(src)
            if want is None:
                want = self._levels[src] = oracles.bfs_levels(self._a, src)
            return 0 if oracles.levels_match(out.indices, out.values, want) else 1
        if kind == "pagerank":
            ok = oracles.dense_close(out.indices, out.values, self._pr, oracles.FIXED_ITER_L1)
            return 0 if ok else 1
        return 0 if int(out) == self._tc else 1


# ----------------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------------


class Serve(Workload):
    """A fig9-shaped Zipf trace replayed through ``GraphService``; one op = one submit."""

    name = "serve"
    QPS = 20_000.0
    N_TENANTS = 8
    N_USERS = 1_200_000
    SOURCE_SKEW = 1.5
    MAX_BATCH = 128
    MAX_WAIT_US = 3_000.0
    STREAMS = 4
    ORACLE_CACHE = 256
    round_len = 250
    # Queries in a batch share one completion time, so the latency tail is
    # set by the few heaviest batches; 4,000 queries (~240 batches) keep it
    # from resting on a single one.
    sim_window = 4_000

    def build(self) -> None:
        from repro.serve import BatchPolicy, GraphService

        rng = inputs.rng_for(self.seed, "serve")
        n, rows, cols = inputs.rmat_edges(13, 8, rng)
        self._edges = (n, rows, cols)
        self._trace = inputs.trace_chunks(
            self.seed, n, self.QPS,
            self.N_TENANTS, self.N_USERS, self.SOURCE_SKEW,
        )
        self._subs: List[Tuple[float, int, str, int, int]] = []
        g = gb.Matrix.from_lists(rows, cols, np.ones(rows.size), n, n, gb.FP64)
        self.svc = GraphService(
            backend="cuda_sim",
            policy=BatchPolicy(max_batch=self.MAX_BATCH, max_wait_us=self.MAX_WAIT_US),
            streams=self.STREAMS,
            store_results=True,
            store_digests=False,
        )
        # register_graph(warm=True) uploads the graph and builds the PPR
        # transition and the feature store before the first query.
        self.svc.register_graph(g)
        for t in range(self.N_TENANTS):
            self.svc.add_tenant(f"tenant{t}", max_queue=10_000_000)
        self._open: List[Any] = []
        self._records: List[Any] = []

    def prepare_oracle(self) -> None:
        n, rows, cols = self._edges
        self._a = oracles.adjacency(n, rows, cols)
        self._features: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._bfs: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._ppr: "OrderedDict[int, np.ndarray]" = OrderedDict()

    def _submission(self, i: int) -> Tuple[float, int, str, int, int]:
        while len(self._subs) <= i:
            self._subs.extend(next(self._trace))
        return self._subs[i]

    def op(self, i: int) -> Callable[[], Any]:
        from repro.serve import BfsQuery, FeatureQuery, KHopQuery, PprQuery

        arrival, tenant, kind, src, hops = self._submission(i)
        if kind == "khop":
            q: Any = KHopQuery(src, hops=hops)
        elif kind == "bfs":
            q = BfsQuery(src)
        elif kind == "ppr":
            q = PprQuery(src, damping=inputs.PPR_DAMPING, iters=inputs.PPR_ITERS)
        else:
            q = FeatureQuery(src)
        svc = self.svc
        name = f"tenant{tenant}"
        return lambda: svc.submit(name, q, arrival_us=arrival)

    def _cached(self, cache: "OrderedDict[int, np.ndarray]", key: int, make: Callable[[], np.ndarray]) -> np.ndarray:
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = make()
            if len(cache) > self.ORACLE_CACHE:
                cache.popitem(last=False)
        else:
            cache.move_to_end(key)
        return hit

    def _check_record(self, rec: Any) -> int:
        if rec.status != "done":
            return 1  # shed, expired or stale
        q, res = rec.query, rec.result
        rec.result = None  # checked; do not retain every payload
        src = q.source
        if q.kind in ("bfs", "khop"):
            full = self._cached(self._bfs, src, lambda: oracles.bfs_levels(self._a, src))
            want = full if q.kind == "bfs" else np.where(full <= q.hops, full, -1)
            return 0 if oracles.levels_match(res.indices, res.values, want) else 1
        if q.kind == "ppr":
            want = self._cached(
                self._ppr, src,
                lambda: oracles.ppr(self._a, src, inputs.PPR_DAMPING, inputs.PPR_ITERS),
            )
            return 0 if oracles.dense_close(res.indices, res.values, want, oracles.FIXED_ITER_L1) else 1
        want = self._cached(self._features, src, lambda: oracles.vertex_features(self._a, src))
        ok = np.array_equal(res.indices, [src]) and np.array_equal(res.values, want)
        return 0 if ok else 1

    def _sweep(self) -> int:
        failures = 0
        still = []
        for rec in self._open:
            if rec.status == "queued":
                still.append(rec)
            else:
                failures += self._check_record(rec)
        self._open = still
        return failures

    def check(self, i: int, out: Any) -> int:
        self._records.append(out)
        self._open.append(out)
        return self._sweep()

    def after_op(self, i: int) -> None:
        pass  # latency comes from the query records

    def window_closed(self) -> bool:
        k = min(self.sim_window, len(self._records))
        return k == self.sim_window and all(
            r.status != "queued" for r in self._records[:k]
        )

    def finish(self) -> int:
        self.svc.drain()
        return self._sweep()

    def _window(self) -> List[Any]:
        return [r for r in self._records[: self.sim_window] if r.status == "done"]

    def sim_summary(self) -> Dict[str, Any]:
        done = self._window()
        lat = [r.completion_us - r.arrival_us for r in done]
        span_us = max(r.completion_us for r in done) - min(r.arrival_us for r in done)
        value, pct, n = stats.tail(lat)
        return {
            "ops_per_s": len(done) / (span_us / 1e6),
            "p50_us": stats.median(lat),
            "tail_us": value,
            "tail_pct": pct,
            "samples": n,
        }

    def layer_metrics(self, before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
        done = self._window()
        batches = {(r.lane, r.start_us): r.batch_size for r in done}
        waits = [r.start_us - r.arrival_us for r in done]
        return {
            "serve.batches": float(len(batches)),
            "serve.mean_batch": sum(batches.values()) / len(batches),
            "serve.queue_wait_p50_us": stats.median(waits),
            "serve.queue_wait_tail_us": stats.tail(waits)[0],
        }

    def stamp(self) -> Dict[str, Any]:
        return {
            **super().stamp(),
            "policy": {"max_batch": self.MAX_BATCH, "max_wait_us": self.MAX_WAIT_US, "streams": self.STREAMS},
            "offered_qps": self.QPS,
            "loop": "open on the virtual clock: latency = virtual completion - arrival; "
            "no host-side send schedule, so generator lateness does not apply",
        }


# ----------------------------------------------------------------------------
# churn
# ----------------------------------------------------------------------------


class Churn(Workload):
    """Edge batches into a ``DynamicGraph`` on multi_sim P=2 with incremental reads.

    One round = apply one batch, then read BFS, CC and PageRank twice each;
    the second reads are answered from the views' caches.  Seven ops put
    the host median on the batch apply (O(batch), input-independent) and
    the simulated median on the CC update.
    """

    name = "churn"
    backend_name = "multi_sim"
    NPARTS = 2
    SPLITTER = "degree_balanced"
    INSERT_PAIRS = 32  # 64 directed edge inserts per batch
    DELETE_PAIRS = 16  # on every fourth batch
    PR_TOL = 1e-6
    READS = ("bfs", "cc", "pagerank") * 2
    round_len = 1 + len(READS)
    sim_window = 16 * round_len  # ≥ 11 PageRank updates, so the sim tail is one

    def build(self) -> None:
        from repro.streaming import (
            DynamicGraph,
            IncrementalBFS,
            IncrementalCC,
            IncrementalPageRank,
        )

        self.backend.configure(nparts=self.NPARTS, splitter=self.SPLITTER)
        rng = inputs.rng_for(self.seed, "churn")
        n, rows, cols = inputs.rmat_edges(13, 8, rng)
        self.source = int(np.argmax(np.bincount(rows, minlength=n)))  # BFS from the top hub
        self.model = inputs.EdgeModel(n, rows, cols)
        self._batch_rng = inputs.rng_for(self.seed, "churn-batches")
        g = gb.Matrix.from_lists(rows, cols, np.ones(rows.size), n, n, gb.FP64)
        self.dg = DynamicGraph(g)
        self.views = {
            "bfs": IncrementalBFS(self.dg, self.source),
            "cc": IncrementalCC(self.dg),
            "pagerank": IncrementalPageRank(self.dg, tol=self.PR_TOL),
        }
        for v in self.views.values():  # view priming
            _settled(lambda: v.query().container)
        self._batch = -1
        self._oracle: Dict[str, Any] = {}
        self._oracle_batch = -2

    def _view_of(self, i: int) -> Optional[str]:
        k = i % self.round_len
        return None if k == 0 else self.READS[k - 1]

    def op(self, i: int) -> Callable[[], Any]:
        from repro.streaming import EdgeBatch

        view = self._view_of(i)
        if view is None:
            self._batch += 1
            deletes = self.DELETE_PAIRS if self._batch % 4 == 3 else 0
            rows, cols, ins = inputs.churn_batch(self.model, self._batch_rng, self.INSERT_PAIRS, deletes)
            batch = EdgeBatch(rows, cols, np.ones(rows.size), ins)
            dg = self.dg
            return lambda: _settled(lambda: dg.apply(batch))
        v = self.views[view]
        return lambda: _settled(lambda: v.query().container)

    def _oracle_for(self, view: str) -> Any:
        if self._oracle_batch != self._batch:
            rows, cols = self.model.symmetric_arrays()
            self._a = oracles.adjacency(self.model.n, rows, cols)
            self._oracle = {}
            self._oracle_batch = self._batch
        hit = self._oracle.get(view)
        if hit is None:
            if view == "bfs":
                hit = oracles.bfs_levels(self._a, self.source)
            elif view == "cc":
                hit = oracles.component_labels(self._a)
            else:
                hit = oracles.pagerank(self._a, 0.85, 1000, tol=1e-13)
            self._oracle[view] = hit
        return hit

    def check(self, i: int, out: Any) -> int:
        view = self._view_of(i)
        if view is None:
            return 0  # the reads that follow verify the applied batch
        want = self._oracle_for(view)
        if view in ("bfs", "cc"):
            ok = oracles.levels_match(out.indices, out.values, want)
        else:
            ok = oracles.dense_close(
                out.indices, out.values, want, oracles.pagerank_bound(self.PR_TOL, 0.85)
            )
        return 0 if ok else 1

    def layer_counters(self) -> Dict[str, float]:
        c = {"compactions": float(self.dg.stats.compactions)}
        for key in ("full_recomputes", "incremental_updates", "cached_hits", "delete_fallbacks", "size_fallbacks"):
            c[key] = float(sum(getattr(v.stats, key) for v in self.views.values()))
        return c

    def layer_metrics(self, before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
        d = {k: after[k] - before[k] for k in after}
        answered = d["incremental_updates"] + d["full_recomputes"]
        reads = answered + d["cached_hits"]
        return {
            "streaming.compactions": d["compactions"],
            "streaming.fallbacks": d["delete_fallbacks"] + d["size_fallbacks"],
            "streaming.incremental_ratio": d["incremental_updates"] / answered if answered else 0.0,
            "streaming.cache_hit_ratio": d["cached_hits"] / reads if reads else 0.0,
        }

    def stamp(self) -> Dict[str, Any]:
        return {
            "backend": "multi_sim",
            "nparts": self.NPARTS,
            "splitter": self.SPLITTER,
            "topology": self.backend.topology.name,
            "pagerank_tol": self.PR_TOL,
        }


WORKLOADS = {w.name: w for w in (Analytics, Serve, Churn)}
