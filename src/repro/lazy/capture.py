"""Automatic whole-loop capture for lazily flushed kernel sequences.

Iterative algorithms (BFS, PageRank, delta-stepping) flush an identical
node sequence every iteration.  The flush computes a structural
*signature* of each tape it executes, and each signature owns one
:class:`Loop`:

- the first time a signature is seen, the flush executes and charges
  normally (the capture iteration) and records the loop's *bindings*: the
  device buffer behind every container the flush made resident;
- every later occurrence is a replay — semantics execute as always, but
  charging is deferred and *accumulated across iterations*.  When the loop
  ends (a config barrier, a profiler read, a ``use_backend`` exit — any
  :func:`repro.lazy.schedule.wait`), one ``graph_replay[lazy:<name>]``
  record is emitted carrying a single launch overhead plus the summed busy
  times of every member kernel.

A replay whose flush finds a captured container on a *different* device
buffer (a version-stale re-upload, an LRU eviction followed by a re-upload,
``evict_all``) cannot reuse the capture: a real CUDA graph would still
dereference the old pointer.  That flush is charged kernel by kernel and
its bindings replace the captured ones — re-instantiation.  Bindings hold
their containers weakly and match them by identity, so a dead container
whose ``id`` is reused never looks rebound.

Signatures are structural: op names, input arities, operator/monoid names
and descriptor flags — never data values, so a BFS frontier changing size
or a PageRank residual shrinking does not break the match, while a
push→pull flip (different params) correctly re-captures.

State is held per :class:`~repro.gpu.device.Device` in a weak-key map so
``reset_device()`` naturally abandons stale captures with the device.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from ..gpu.costmodel import KernelWork
from ..gpu.graph import REPLAY_PREFIX
from ..gpu.profiler import LaunchRecord
from ..sanitizer import runtime as _gbsan
from .ir import Node

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..gpu.device import Device
    from ..gpu.kernel import Kernel

__all__ = ["Loop", "close", "discard", "enter", "signature"]

LAZY_REPLAY_PREFIX = REPLAY_PREFIX + "lazy:"

#: ``id(container) -> (weakref to it, device buffer)``: what one flush
#: bound.  The weakref confirms identity, so a reused ``id`` never matches.
Bindings = Dict[int, Tuple["weakref.ref[Any]", Any]]


class Loop:
    """Capture state for one flush signature.

    While a flush of the signature runs it is the device's
    ``active_graph``: :func:`repro.gpu.kernel.launch` routes each launch
    through :meth:`on_launch` (True defers the charge), and
    :class:`~repro.gpu.residency.ResidentSet` reports every container it
    makes resident through :meth:`on_bind`.  Deferred launches accumulate
    across iterations until :meth:`commit` emits one aggregated record.
    """

    __slots__ = (
        "name", "replaying", "bindings", "binds", "pending", "start",
        "san_bindings", "san_reads",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.replaying = False
        self.bindings: Bindings = {}
        # (container, buffer) made resident by the running flush.
        self.binds: List[Tuple[Any, Any]] = []
        self.pending: List[Tuple[str, float, KernelWork]] = []
        # Index into ``pending`` where the running flush's launches start.
        self.start = 0
        # gbsan's own view of the same bindings, from declared kernel reads.
        self.san_bindings: Bindings = {}
        self.san_reads: List[Tuple[Any, Any]] = []

    def begin(self, replaying: bool) -> None:
        """Start one flush: a capture, or a replay of the bindings."""
        self.replaying = replaying
        self.start = len(self.pending)
        self.binds = []
        self.san_reads = []

    def on_launch(self, kernel: "Kernel", work: KernelWork, dev: "Device") -> bool:
        if not self.replaying:
            return False
        busy = dev.cost_model.kernel_time_us(work) - dev.props.launch_overhead_us
        self.pending.append((kernel.display_name, max(busy, 0.0), work))
        return True

    def on_bind(self, container: Any, buffer: Any) -> None:
        self.binds.append((container, buffer))

    def _rebound(self) -> bool:
        """True when a live captured container now has another buffer."""
        for c, buf in self.binds:
            cap = self.bindings.get(id(c))
            if cap is not None and cap[1] is not buf and cap[0]() is c:
                return True
        return False

    def finish(self, dev: "Device") -> None:
        """End one flush; re-instantiate when a captured binding moved.

        Decided here rather than per launch because the re-upload that
        moves a container happens inside the flush, before its kernel.
        """
        replayed = self.replaying and not self._rebound()
        if self.replaying and not replayed:
            # Re-instantiation: this flush's launches are charged one by one.
            for name, _, work in self.pending[self.start :]:
                dt = dev.cost_model.kernel_time_us(work)
                start = dev.clock_us
                dev.advance(dt)
                dev._profiler.record(
                    LaunchRecord(
                        name=name,
                        kind="kernel",
                        start_us=start,
                        duration_us=dt,
                        flops=work.flops,
                        bytes=work.bytes_total,
                        threads=work.threads,
                    )
                )
            del self.pending[self.start :]
        if not replayed:
            self.bindings = {id(c): (weakref.ref(c), buf) for c, buf in self.binds}
        self.binds = []
        san = _gbsan.ACTIVE
        if san is not None:
            san.on_loop_commit(self, replayed)

    def commit(self, dev: "Device") -> None:
        """Emit the accumulated replays as one aggregated record."""
        pending, self.pending = self.pending, []
        self.start = 0
        if not pending:
            return
        overhead = dev.props.launch_overhead_us
        dt = overhead + sum(busy for _, busy, _ in pending)
        start = dev.clock_us
        dev.advance(dt)
        dev._profiler.record(
            LaunchRecord(
                name=f"{LAZY_REPLAY_PREFIX}{self.name}]",
                kind="kernel",
                start_us=start,
                duration_us=dt,
                flops=sum(w.flops for _, _, w in pending),
                bytes=sum(w.bytes_total for _, _, w in pending),
                threads=max(w.threads for _, _, w in pending),
                members=tuple(
                    (name, busy, w.flops, w.bytes_total)
                    for name, busy, w in pending
                ),
            )
        )


class _State:
    """Per-device capture bookkeeping."""

    __slots__ = ("loops", "open")

    def __init__(self) -> None:
        self.loops: Dict[Tuple[Any, ...], Loop] = {}
        # Loops holding deferred launches, committed at the next close().
        self.open: Dict[Tuple[Any, ...], Loop] = {}


_STATES: "weakref.WeakKeyDictionary[Any, _State]" = weakref.WeakKeyDictionary()


def _token(v: Any) -> Any:
    """A value's structural identity for signature purposes.

    Operator-like objects contribute their name, descriptors their flags;
    raw data (ints, floats, arrays — BFS depth, PageRank teleport mass)
    contributes only its *type* so per-iteration value changes do not
    break the loop match.
    """
    if v is None or isinstance(v, (bool, str)):
        return v
    name = getattr(v, "name", None)
    if isinstance(name, str):
        return name
    if hasattr(v, "complement_mask"):
        return (
            "desc",
            v.transpose_a,
            v.transpose_b,
            v.complement_mask,
            v.structural_mask,
            v.replace,
        )
    return type(v).__name__


def _node_sig(node: Node) -> Tuple[Any, ...]:
    keys = tuple(sorted(k for k, v in node.inputs.items() if v is not None))
    params = tuple(sorted((k, _token(v)) for k, v in node.params.items()))
    return (node.op, keys, params)


def signature(nodes: List[Node]) -> Tuple[Any, ...]:
    """Structural signature of one flushed tape."""
    return tuple(_node_sig(n) for n in nodes)


def enter(nodes: List[Node]) -> Loop:
    """Start one flush of ``nodes`` under its signature's loop.

    The first occurrence of a signature is the capture iteration; repeats
    replay into the (possibly already accumulating) aggregate.
    """
    from ..gpu.device import get_device

    dev = get_device()
    state = _STATES.get(dev)
    if state is None:
        state = _STATES[dev] = _State()
    sig = signature(nodes)
    loop = state.loops.get(sig)
    if loop is None:
        loop = state.loops[sig] = Loop(f"{nodes[0].op}x{len(nodes)}")
        loop.begin(replaying=False)
        return loop
    state.open[sig] = loop
    loop.begin(replaying=True)
    return loop


def close(dev: "Device") -> None:
    """Commit and clear every open aggregate (loop-exit barrier)."""
    state = _STATES.get(dev)
    if state is None or not state.open:
        return
    open_loops, state.open = state.open, {}
    for loop in open_loops.values():
        loop.commit(dev)


def discard(dev: "Device") -> None:
    """Drop all capture state without charging (device reset)."""
    _STATES.pop(dev, None)
