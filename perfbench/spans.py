"""Host-side layer spans, recorded from outside the program.

:class:`Tracer` wraps the public functions of each ``repro`` layer (see
:func:`layer_targets`) and records one span per call: name, start, end,
parent span and the benchmark op it belongs to.  Spans stay in columnar
arrays in memory and are written out once, at the end of the run.

A layer's **self time** is the duration of its spans minus the time their
direct child spans cover.  Calls are single-threaded and properly nested,
so children never overlap and "covered" is the sum of child durations.
Every op also gets a root span (layer ``unwrapped``): its self time is the
part of the op spent outside every wrapped layer.

Wrappers are installed only while a traced op range runs
(:meth:`Tracer.install` / :meth:`Tracer.remove`), so untraced ops pay
nothing.  Outside an op (the benchmark's own bookkeeping) a wrapper calls
straight through without recording.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

ROOT_LAYER = "unwrapped"

#: Host layers reported as ``<layer>.calls`` / ``<layer>.self_s``, in order.
LAYERS = (
    "algorithms",
    "core",
    "lazy",
    "backends",
    "backends.cpu",
    "gpu.launch",
    "gpu.residency",
    "gpu.memory",
    "gpu.profiler",
    "distributed",
    "serve.coalescer",
    "serve.engine",
    "serve.scheduler",
    "serve.busy_us",
    "streaming.graph",
    "streaming.view",
)


def _public_members(cls: type, properties: bool) -> List[str]:
    names = []
    for name, attr in vars(cls).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(attr) or (properties and isinstance(attr, property)):
            names.append(name)
    return sorted(names)


def layer_targets(backend: Any) -> List[Tuple[str, str, Any, Optional[str]]]:
    """``(layer, span name, owner, attribute)`` for every wrapped callable.

    ``owner`` is a function (patched wherever ``repro`` modules resolve it),
    a class (``attribute`` names the method or property), or the active
    backend instance (``attribute`` names the bound method).
    """
    import repro.algorithms as algorithms
    from repro.backends.cpu import ewise, fastpath, spgemm, spmv
    from repro.core import operations
    from repro.distributed.cluster import SimCluster
    from repro.distributed.comm import CommModel
    from repro.gpu import kernel
    from repro.gpu.memory import DeviceAllocator
    from repro.gpu.profiler import Profiler
    from repro.gpu.residency import ResidentSet
    from repro.lazy import schedule
    from repro.serve.coalescer import Coalescer
    from repro.serve.engine import ExecutionEngine
    from repro.serve.scheduler import BatchScheduler
    from repro.streaming.graph import DynamicGraph
    from repro.streaming.incremental import (
        IncrementalBFS,
        IncrementalCC,
        IncrementalPageRank,
    )

    out: List[Tuple[str, str, Any, Optional[str]]] = []

    def funcs(layer: str, fns: List[Callable[..., Any]]) -> None:
        for fn in fns:
            out.append((layer, f"{fn.__module__}.{fn.__qualname__}", fn, None))

    def methods(layer: str, cls: type, names: List[str]) -> None:
        for name in names:
            out.append((layer, f"{cls.__qualname__}.{name}", cls, name))

    funcs("algorithms", [getattr(algorithms, n) for n in algorithms.__all__])
    funcs("core", [getattr(operations, n) for n in operations.__all__])
    funcs("lazy", [schedule.force, schedule.sync, schedule.wait])
    be_cls = type(backend)
    for name in dir(be_cls):
        if not name.startswith("_") and inspect.isfunction(inspect.getattr_static(be_cls, name)):
            out.append(("backends", f"{be_cls.__name__}.{name}", backend, name))
    funcs(
        "backends.cpu",
        [
            spmv.row_gather_product,
            ewise.ewise_add_indexed,
            spgemm.spgemm_esr,
            spgemm.spgemm_masked_esr,
            fastpath.fast_reduce_by_key,
            fastpath.mask_slot_map,
        ],
    )
    funcs("gpu.launch", [kernel.launch, kernel.charge_transfer])
    methods("gpu.residency", ResidentSet, ["ensure", "mark"])
    methods("gpu.memory", DeviceAllocator, _public_members(DeviceAllocator, False))
    methods("gpu.profiler", Profiler, _public_members(Profiler, True))
    methods("distributed", SimCluster, _public_members(SimCluster, True))
    methods("distributed", CommModel, _public_members(CommModel, True))
    methods("serve.coalescer", Coalescer, _public_members(Coalescer, False))
    methods("serve.engine", ExecutionEngine, ["execute"])
    methods("serve.scheduler", BatchScheduler, ["place"])
    methods("serve.busy_us", ExecutionEngine, ["busy_us"])
    methods("streaming.graph", DynamicGraph, ["apply", "compact"])
    for cls in (IncrementalBFS, IncrementalCC, IncrementalPageRank):
        methods("streaming.view", cls, ["query"])
    return out


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_layer: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any, Any]] = []  # (owner, attr, original, wrapper)
        self.traced_ops = 0

    # -- recording ---------------------------------------------------------

    def intern(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
        return nid

    def open(self, nid: int, op: int = -1) -> int:
        idx = len(self.start)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.op.append(op if op >= 0 else self.op[self._stack[-1]])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def begin_op(self, op: int) -> int:
        self.traced_ops += 1
        return self.open(self.intern("op", ROOT_LAYER), op)

    def wrap(self, fn: Callable[..., Any], name: str, layer: str) -> Callable[..., Any]:
        nid = self.intern(name, layer)
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not stack:
                return fn(*args, **kwargs)
            idx = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    # -- patching ----------------------------------------------------------

    def prepare(self, targets: List[Tuple[str, str, Any, Optional[str]]]) -> None:
        """Resolve every patch site once; :meth:`install` then only assigns."""
        repro_modules = [
            m for k, m in list(sys.modules.items())
            if (k == "repro" or k.startswith("repro.")) and m is not None
        ]
        for layer, name, owner, attr in targets:
            if attr is None:
                wrapper = self.wrap(owner, name, layer)
                for mod in repro_modules:
                    for key, val in list(vars(mod).items()):
                        if val is owner:
                            self._patches.append((mod, key, owner, wrapper))
            elif isinstance(owner, type):
                original = vars(owner)[attr]
                if isinstance(original, property):
                    wrapper = property(self.wrap(original.fget, name, layer))
                else:
                    wrapper = self.wrap(original, name, layer)
                self._patches.append((owner, attr, original, wrapper))
            else:  # bound method of the active backend instance
                wrapper = self.wrap(getattr(owner, attr), name, layer)
                self._patches.append((owner, attr, None, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def columns(self) -> Dict[str, np.ndarray]:
        return {
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
        }

    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """``{layer: (calls, self seconds)}`` over every recorded span."""
        return layer_totals(self.columns(), self.name_layer)

    def write(self, path: str, meta: Dict[str, Any]) -> None:
        """Dump the spans as one JSON document of parallel columns."""
        cols = self.columns()
        doc = {
            "meta": meta,
            "names": self.names,
            "layers": self.name_layer,
            "columns": {k: v.tolist() for k, v in cols.items()},
        }
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the summed durations of direct children."""
    dur = (end - start).astype(np.float64)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def layer_totals(cols: Dict[str, np.ndarray], name_layer: List[str]) -> Dict[str, Tuple[int, float]]:
    layers = sorted(set(name_layer))
    layer_idx = {layer: i for i, layer in enumerate(layers)}
    span_layer = np.array([layer_idx[l] for l in name_layer], dtype=np.int64)[cols["name"]]
    selfs = self_times(cols["start_ns"], cols["end_ns"], cols["parent"])
    calls = np.bincount(span_layer, minlength=len(layers))
    self_ns = np.bincount(span_layer, weights=selfs, minlength=len(layers))
    return {l: (int(calls[i]), float(self_ns[i]) / 1e9) for l, i in layer_idx.items()}
