"""Device-side counters on the simulated clock, read from outside.

:func:`snapshot` sums the profiler, allocator and comm counters over the
devices a workload runs on (one for ``cuda_sim``, the cluster's P for
``multi_sim``); the difference of two snapshots is the device work done
between them.  The counters are the simulator's own deterministic
accounting, so a fixed op range gives bit-identical values run to run.

:class:`CostAttribution` wraps ``CostModel.kernel_time_us`` and classifies
each :class:`~repro.gpu.costmodel.KernelWork` by which arm of
``launch_overhead + max(compute, memory)`` set its time.  The busy part
(``time - launch_overhead``) is credited to that arm; launch overhead is
what the profiler actually charged, one per kernel record, because a
captured-loop replay charges one overhead for all its members.
:func:`conservation_error` checks that the three parts add up to the
profiler's kernel time.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.gpu.costmodel import CostModel, KernelWork
from repro.gpu.graph import REPLAY_PREFIX

#: Relative tolerance of the attribution conservation check (float rounding).
CONSERVATION_RTOL = 1e-9


class CostAttribution:
    """Compute- vs memory-bound busy time, accumulated from the cost model."""

    def __init__(self) -> None:
        self.compute_us = 0.0
        self.memory_us = 0.0
        self._original: Optional[Any] = None

    def classify(self, model: CostModel, work: KernelWork, time_us: float) -> None:
        p = model.props
        compute_rate = p.peak_gflops * model.occupancy(work.threads)
        compute_us = work.flops / max(compute_rate * 1e3, 1e-12)
        coal = work.coalescing if model.enable_coalescing else 1.0
        memory_us = work.bytes_total / max(p.mem_bandwidth_gbps / max(coal, 1.0) * 1e3, 1e-12)
        busy = time_us - p.launch_overhead_us
        if compute_us >= memory_us:
            self.compute_us += busy
        else:
            self.memory_us += busy

    def install(self) -> None:
        original = self._original = CostModel.kernel_time_us
        attribution = self

        def kernel_time_us(model: CostModel, work: KernelWork) -> float:
            t = original(model, work)
            attribution.classify(model, work, t)
            return t

        CostModel.kernel_time_us = kernel_time_us  # type: ignore[method-assign]

    def remove(self) -> None:
        if self._original is not None:
            CostModel.kernel_time_us = self._original  # type: ignore[method-assign]
            self._original = None


def devices_of(backend: Any) -> List[Any]:
    if backend.name == "multi_sim":
        return list(backend.cluster.devices)
    from repro.gpu.device import get_device

    return [get_device()]


def snapshot(backend: Any, attribution: Optional[CostAttribution] = None) -> Dict[str, float]:
    """Cumulative device counters, summed over the backend's devices.

    Reading ``Device.profiler`` is an observation point: pending lazy work
    is forced and open capture aggregates are committed first.
    """
    s = {
        "launches": 0.0, "replays": 0.0, "kernel_us": 0.0, "overhead_us": 0.0,
        "flops": 0.0, "bytes": 0.0, "transfer_us": 0.0, "h2d_bytes": 0.0,
        "h2d_count": 0.0, "h2d_elided": 0.0, "allocs": 0.0, "pool_hits": 0.0,
    }
    for dev in devices_of(backend):
        overhead = dev.props.launch_overhead_us
        for r in dev.profiler.records:
            if r.kind == "kernel":
                s["launches"] += 1
                s["replays"] += r.name.startswith(REPLAY_PREFIX)
                s["kernel_us"] += r.duration_us
                s["overhead_us"] += overhead
                s["flops"] += r.flops
                s["bytes"] += r.bytes
            elif r.kind in ("h2d", "d2h"):
                s["transfer_us"] += r.duration_us
                if r.kind == "h2d":
                    s["h2d_bytes"] += r.bytes
        st = dev.allocator.stats
        s["h2d_count"] += st.h2d_count
        s["h2d_elided"] += st.h2d_elided_count
        s["allocs"] += st.alloc_count
        s["pool_hits"] += st.pool_hit_count
    if backend.name == "multi_sim":
        comm = backend.cluster.comm.stats
        s["comm_us"] = comm.time_us
        s["comm_bytes"] = comm.total_bytes
        s["collectives"] = float(comm.total_count)
    else:
        s["comm_us"] = s["comm_bytes"] = s["collectives"] = 0.0
    if attribution is not None:
        s["compute_us"] = attribution.compute_us
        s["memory_us"] = attribution.memory_us
    return s


def diff(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: after[k] - before[k] for k in after}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def gpu_metrics(d: Dict[str, float]) -> Dict[str, float]:
    """Per-layer device metrics from a snapshot difference."""
    return {
        "gpu.launches": d["launches"],
        "gpu.replays": d["replays"],
        "gpu.kernel_us": d["kernel_us"],
        "gpu.launch_overhead_us": d["overhead_us"],
        "gpu.memory_bound_us": d["memory_us"],
        "gpu.compute_bound_us": d["compute_us"],
        "gpu.flops": d["flops"],
        "gpu.bytes": d["bytes"],
        "gpu.transfer_us": d["transfer_us"],
        "gpu.h2d_bytes": d["h2d_bytes"],
        "gpu.h2d_elided_ratio": _ratio(d["h2d_elided"], d["h2d_elided"] + d["h2d_count"]),
        "gpu.pool_hit_ratio": _ratio(d["pool_hits"], d["pool_hits"] + d["allocs"]),
        "distributed.comm_us": d["comm_us"],
        "distributed.comm_bytes": d["comm_bytes"],
        "distributed.collectives": d["collectives"],
    }


def conservation_error(d: Dict[str, float]) -> float:
    """Relative gap between kernel time and overhead + compute + memory arms."""
    parts = d["overhead_us"] + d["compute_us"] + d["memory_us"]
    return abs(parts - d["kernel_us"]) / max(abs(d["kernel_us"]), 1e-12)
