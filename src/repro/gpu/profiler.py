"""Kernel-launch profiler for the simulated device.

Records one :class:`LaunchRecord` per kernel launch and per transfer; the
benchmark harness reads the aggregate to report simulated GPU times (the
host wall-clock of the simulation itself is meaningless for the GPU series).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .graph import REPLAY_PREFIX

__all__ = ["LaunchRecord", "Profiler"]


@dataclass(frozen=True)
class LaunchRecord:
    """One simulated event: a kernel launch, a PCIe transfer, or a collective.

    An aggregated ``graph_replay[...]`` record carries its member kernels in
    ``members`` as ``(name, busy_us, flops, bytes)`` tuples so per-kernel
    attribution survives replay aggregation (see :meth:`Profiler.by_kernel`).

    ``reads``/``writes`` hold the launch's declared access sets as buffer
    labels.  They are populated only while the sanitizer is enabled (access
    resolution is skipped otherwise) and exist for diagnostics — a gbsan
    report can be correlated with the launch record that triggered it.
    """

    name: str
    kind: str  # "kernel" | "h2d" | "d2h" | "comm"
    start_us: float
    duration_us: float
    flops: float = 0.0
    bytes: float = 0.0
    threads: int = 0
    members: Tuple[Tuple[str, float, float, float], ...] = field(default=())
    reads: Tuple[str, ...] = field(default=())
    writes: Tuple[str, ...] = field(default=())

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us


class Profiler:
    """Accumulates launch records and provides aggregates.

    The scalar aggregates are running totals, added in record order as
    each record arrives, so they equal a left-to-right ``sum()`` over
    :attr:`records` and reading them is O(1) however long the run.
    """

    def __init__(self) -> None:
        self.records: List[LaunchRecord] = []
        self.reset()

    def record(self, rec: LaunchRecord) -> None:
        self.records.append(rec)
        self._total_us += rec.duration_us
        if rec.kind == "kernel":
            self._kernel_us += rec.duration_us
            self._launches += 1
            if rec.name.startswith(REPLAY_PREFIX):
                self._replays += 1
        elif rec.kind in ("h2d", "d2h"):
            self._transfer_us += rec.duration_us
            if rec.kind == "h2d":
                self._h2d_bytes += rec.bytes

    def reset(self) -> None:
        self.records.clear()
        # Int zero starts, as sum() does: an all-int stream stays int.
        self._total_us: float = 0
        self._kernel_us: float = 0
        self._transfer_us: float = 0
        self._h2d_bytes: float = 0
        self._launches = 0
        self._replays = 0

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    @property
    def total_time_us(self) -> float:
        return self._total_us

    @property
    def kernel_time_us(self) -> float:
        return self._kernel_us

    @property
    def transfer_time_us(self) -> float:
        return self._transfer_us

    @property
    def launch_count(self) -> int:
        return self._launches

    @property
    def h2d_bytes(self) -> float:
        """Bytes actually copied host→device (elided uploads excluded)."""
        return self._h2d_bytes

    @property
    def replay_count(self) -> int:
        """Aggregated loop-replay launches (see repro.lazy.capture)."""
        return self._replays

    def by_kernel(self, expand_replays: bool = False) -> Dict[str, Dict[str, float]]:
        """Per-kernel-name aggregate: count, total time, flops, bytes.

        With ``expand_replays=True``, aggregated ``graph_replay[...]``
        records are attributed back to their member kernels (one count and
        its busy time each); the single launch overhead the replay actually
        paid stays on the ``graph_replay[...]`` row, so column sums still
        equal :attr:`kernel_time_us`.
        """
        out: Dict[str, Dict[str, float]] = {}

        def bump(
            name: str, count: float, time_us: float, flops: float, nbytes: float
        ) -> None:
            agg = out.setdefault(
                name, {"count": 0, "time_us": 0.0, "flops": 0.0, "bytes": 0.0}
            )
            agg["count"] += count
            agg["time_us"] += time_us
            agg["flops"] += flops
            agg["bytes"] += nbytes

        for r in self.records:
            if r.kind != "kernel":
                continue
            if expand_replays and r.members:
                busy_total = 0.0
                for name, busy, flops, nbytes in r.members:
                    bump(name, 1, busy, flops, nbytes)
                    busy_total += busy
                bump(r.name, 1, r.duration_us - busy_total, 0.0, 0.0)
            else:
                bump(r.name, 1, r.duration_us, r.flops, r.bytes)
        return out

    def summary(self, expand_replays: bool = False) -> str:
        """Human-readable per-kernel table (for examples/EXPERIMENTS)."""
        lines = [f"{'kernel':<28}{'count':>7}{'time_us':>12}{'GB':>9}"]
        for name, agg in sorted(self.by_kernel(expand_replays).items()):
            lines.append(
                f"{name:<28}{int(agg['count']):>7}{agg['time_us']:>12.1f}"
                f"{agg['bytes'] / 1e9:>9.3f}"
            )
        lines.append(
            f"{'transfers':<28}{'':>7}{self.transfer_time_us:>12.1f}"
        )
        return "\n".join(lines)
