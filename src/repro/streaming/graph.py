"""Mutable graph front: batched edge churn over a static CSR.

:class:`DynamicGraph` wraps a frontend :class:`~repro.core.matrix.Matrix`
and accepts :class:`~repro.streaming.batch.EdgeBatch` mutations.  Pending
ops live in a :class:`~repro.streaming.overlay.DeltaOverlay` — point reads
(:meth:`DynamicGraph.has_edge` / :meth:`edge_value`) merge base + delta on
the fly, so applying a batch is O(batch) and never rewrites the CSR.

**Compaction** folds the overlay into the base CSR in place
(:meth:`~repro.containers.csr.CSRMatrix.install_arrays` preserves the
container's identity and bumps its version, so aux caches, residency
entries, multi_sim partition caches, and lazy-tape fingerprints all
invalidate through the version stamp).  On ``cuda_sim`` the compaction is
charged as a delta H2D upload plus one merge kernel; on ``multi_sim`` each
shard uploads and merges its slice of the delta with an all-to-all to
redistribute moved rows; host backends install for free.  Compaction runs
eagerly when the pending delta crosses the :class:`CompactionPolicy`
threshold, and implicitly whenever :attr:`DynamicGraph.matrix` is read —
GraphBLAS kernels always see a fully materialised CSR.

**Views** (the incremental algorithms in :mod:`repro.streaming.incremental`)
attach via :meth:`DynamicGraph.attach`; they are notified *before* each
batch lands so they can probe pre-batch state (is this delete effective?)
and decide between frontier seeding and full recompute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..backends import current_backend
from ..core.matrix import Matrix
from ..exceptions import InvalidValueError
from ..gpu.costmodel import KernelWork
from ..gpu.kernel import Kernel, LaunchConfig, charge_transfer, launch
from ..sanitizer.access import Access
from .batch import EdgeBatch
from .overlay import DeltaOverlay, merge_overlay

__all__ = ["CompactionPolicy", "StreamStats", "DynamicGraph"]


# Device-side merge of base CSR + delta COO (cuda_sim): one pass over
# base.nvals + len(overlay) items, producing the compacted arrays.  The
# semantic function is the same vectorised three-way merge the host path
# uses, so every backend materialises bit-identical CSR arrays.
# gbsan: ok(access-over-declared) -- run is functional; the declared write covers the caller's install_arrays swap so gbsan invalidates base residency at the launch
COMPACT_MERGE = Kernel(
    "stream_compact_merge",
    run=lambda base, overlay: merge_overlay(base, overlay),
    work=lambda base, overlay: KernelWork(
        flops=2.0 * (base.nvals + len(overlay)),
        bytes_read=float(base.nbytes + overlay.nbytes),
        bytes_written=float(base.nbytes + overlay.nbytes),
    ),
    accesses=lambda base, overlay: Access(reads=(base,), writes=(base,)),
)

# Pricing-only shard merge (multi_sim): each device merges its row slice of
# the delta; the semantics ran once host-side (same arrays everywhere).
COMPACT_SHARD = Kernel(
    "stream_compact_shard",
    run=lambda n_items, item_bytes: None,
    work=lambda n_items, item_bytes: KernelWork(
        flops=2.0 * n_items,
        bytes_read=float(n_items) * item_bytes,
        bytes_written=float(n_items) * item_bytes,
    ),
)


@dataclass(frozen=True)
class CompactionPolicy:
    """When does the pending delta get folded into the base CSR?

    Auto-compaction triggers when the overlay holds more than
    ``max_delta_fraction`` of the base nnz **and** at least
    ``min_delta_ops`` pending ops (the floor keeps tiny graphs from
    compacting on every batch).  ``never`` disables auto-compaction —
    reads through :attr:`DynamicGraph.matrix` still compact on demand.
    """

    max_delta_fraction: float = 0.25
    min_delta_ops: int = 64
    never: bool = False

    def should_compact(self, pending_ops: int, base_nvals: int) -> bool:
        if self.never or pending_ops == 0:
            return False
        if pending_ops < self.min_delta_ops:
            return False
        return pending_ops > self.max_delta_fraction * max(base_nvals, 1)


@dataclass
class StreamStats:
    """Mutation-side counters (views keep their own recompute stats)."""

    batches: int = 0
    inserts: int = 0
    deletes: int = 0
    compactions: int = 0
    auto_compactions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "batches": self.batches,
            "inserts": self.inserts,
            "deletes": self.deletes,
            "compactions": self.compactions,
            "auto_compactions": self.auto_compactions,
        }


class DynamicGraph:
    """A square adjacency matrix under batched edge churn."""

    def __init__(
        self, matrix: Matrix, policy: Optional[CompactionPolicy] = None
    ) -> None:
        if matrix.nrows != matrix.ncols:
            raise InvalidValueError(
                f"dynamic graph must be square, got {matrix.shape}"
            )
        self._matrix = matrix
        self.policy = policy if policy is not None else CompactionPolicy()
        self._overlay = DeltaOverlay()
        self._views: List[Any] = []
        #: Monotonic mutation sequence number; bumped once per applied batch
        #: (compaction does NOT bump it — the logical graph is unchanged).
        self.seq = 0
        self.stats = StreamStats()

    # ------------------------------------------------------------------
    # Introspection (reads merge base + pending delta)
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return self._matrix.nrows

    @property
    def nrows(self) -> int:
        return self._matrix.nrows

    @property
    def ncols(self) -> int:
        return self._matrix.ncols

    @property
    def pending_ops(self) -> int:
        """Number of normalized pending delta ops (0 when compacted)."""
        return len(self._overlay)

    @property
    def base_nvals(self) -> int:
        return self._matrix.container.nvals

    def nvals(self) -> int:
        """Edge count of the *logical* graph (base ⊕ delta)."""
        if len(self._overlay) == 0:
            return self.base_nvals
        rows, _cols = self.edges()
        return int(rows.size)

    def has_edge(self, i: int, j: int) -> bool:
        pend = self._overlay.get(i, j)
        if pend is not None:
            return pend[0]
        return self._matrix.container.get(i, j) is not None

    def edge_value(self, i: int, j: int) -> Optional[float]:
        """Logical stored value at ``(i, j)``, or None if absent."""
        pend = self._overlay.get(i, j)
        if pend is not None:
            return float(pend[1]) if pend[0] else None
        v = self._matrix.container.get(i, j)
        return None if v is None else float(v)

    def edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, cols)`` of the logical graph, without compacting.

        The mutation fuzzer samples delete targets from this; it is a host
        merge, so it neither charges device work nor bumps the version.
        """
        base = self._matrix.container
        if len(self._overlay) == 0:
            rows = base.row_ids()
            return rows, base.indices.copy()
        indptr, indices, _vals = merge_overlay(base, self._overlay)
        rows = np.repeat(np.arange(base.nrows, dtype=np.int64), np.diff(indptr))
        return rows, indices

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def attach(self, view: Any) -> Any:
        """Register an incremental view; returns it for chaining."""
        if view not in self._views:
            self._views.append(view)
        return view

    def detach(self, view: Any) -> None:
        if view in self._views:
            self._views.remove(view)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def apply(self, batch: EdgeBatch) -> "DynamicGraph":
        """Apply one edge batch atomically.

        Views are notified with the normalized batch *before* the overlay
        absorbs it, so they can probe pre-batch state through
        :meth:`has_edge` / :meth:`edge_value`.
        """
        batch.validate(self.nrows, self.ncols)
        nb = batch.normalized()
        if len(nb) == 0:
            return self
        for view in self._views:
            view.on_batch(self, nb)
        self._overlay.absorb(nb)
        self.seq += 1
        self.stats.batches += 1
        self.stats.inserts += nb.insert_count
        self.stats.deletes += nb.delete_count
        if self.policy.should_compact(len(self._overlay), self.base_nvals):
            self.stats.auto_compactions += 1
            self.compact()
        return self

    def insert_edges(self, rows: Any, cols: Any, vals: Any) -> "DynamicGraph":
        return self.apply(EdgeBatch.inserts(rows, cols, vals))

    def delete_edges(self, rows: Any, cols: Any) -> "DynamicGraph":
        return self.apply(EdgeBatch.deletes(rows, cols))

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def compact(self) -> bool:
        """Fold the pending delta into the base CSR; True if work was done.

        The merge is charged through the active backend's cost model (see
        module docstring); the container keeps its identity and gets a new
        version, which is what invalidates every downstream cache.
        """
        if len(self._overlay) == 0:
            return False
        m = self._matrix
        m._settle()  # recorded lazy ops may still read the old arrays
        base = m.container
        be = current_backend()
        name = getattr(be, "name", "")
        if name == "cuda_sim":
            self._compact_device(be, base)
        elif name == "multi_sim":
            self._compact_sharded(be, base)
        else:
            # Host backends: the merge is ordinary NumPy, no device charge.
            base.install_arrays(*merge_overlay(base, self._overlay))
        m._invalidate()
        self._overlay.clear()
        self.stats.compactions += 1
        return True

    def _compact_device(self, be: Any, base: Any) -> None:
        """cuda_sim: upload the delta, merge on-device, mark the result."""
        dev = be._dev()
        be._ensure_resident(base)
        charge_transfer(self._overlay.nbytes, "h2d", device=dev)
        arrays = launch(
            COMPACT_MERGE,
            LaunchConfig.cover(base.nvals + len(self._overlay)),
            base,
            self._overlay,
            device=dev,
        )
        base.install_arrays(*arrays)
        # The merged arrays were produced on-device: mark the new version
        # clean so the next kernel elides the re-upload.
        be.note_result(base)

    def _compact_sharded(self, be: Any, base: Any) -> None:
        """multi_sim: shard-local delta merges + all-to-all row exchange."""
        if be.nparts == 1:
            self._compact_device(be._ex(0), base)
            return
        be._ensure_available(base)
        arrays = merge_overlay(base, self._overlay)
        nparts = be.nparts
        per_items = max((base.nvals + len(self._overlay)) / nparts, 1.0)
        per_delta = max(self._overlay.nbytes // nparts, 1)
        item_bytes = base.type.nbytes + 8  # value + column index per item
        for p in range(nparts):
            charge_transfer(per_delta, "h2d", device=be._dev(p))
            launch(
                COMPACT_SHARD,
                LaunchConfig.cover(int(per_items)),
                per_items,
                item_bytes,
                device=be._dev(p),
                san_reads=(base,),
            )
        # Inserts can move a row's slice across the ownership split; charge
        # the redistribution like the sharded transpose does.
        dt = be.cluster.comm.all_to_all(float(self._overlay.nbytes))
        be.cluster.charge_comm("all_to_all", dt, float(self._overlay.nbytes))
        base.install_arrays(*arrays)
        be.note_result(base)

    # ------------------------------------------------------------------
    # Materialised access
    # ------------------------------------------------------------------

    @property
    def matrix(self) -> Matrix:
        """The materialised graph (compacts pending delta on demand)."""
        self.compact()
        return self._matrix

    def snapshot(self) -> Matrix:
        """An independent materialised copy (full-recompute oracle input).

        Host-side merge into a fresh container — no device charge, no
        version bump, no compaction of the live graph.
        """
        base = self._matrix.container
        from ..containers.csr import CSRMatrix

        indptr, indices, values = merge_overlay(base, self._overlay)
        return Matrix(
            CSRMatrix(base.nrows, base.ncols, indptr, indices, values, base.type)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicGraph(n={self.n}, base_nvals={self.base_nvals}, "
            f"pending={self.pending_ops}, seq={self.seq})"
        )
