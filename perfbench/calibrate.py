"""Machine-speed probe: a fixed piece of host work timed next to the ops.

On a machine shared with other tenants the CPU itself runs slower or
faster from minute to minute (hyperthread siblings, caches and memory
bandwidth taken by others), and CPU time counts that.  The runner times
this probe, which never calls the program, before every setup and every
round of ops, and scales the run's host times by ``REFERENCE_S / median
probe``: host figures are then in **reference seconds**, the time the
work would take on a machine on which the probe takes ``REFERENCE_S``.
A change to the program moves them; a change in machine speed that
slows the probe and the program alike does not.

The probe mixes what the program's host time is made of: interpreter work
(dict, list and attribute traffic, small calls) and NumPy calls on
arrays of the workloads' sizes (sort, gather, searchsorted, bincount,
cumulative sums), so that both kinds of slow-down show in it.
"""

from __future__ import annotations

import time
import numpy as np

#: Probe CPU seconds on the reference machine.  Only a scale: any fixed
#: value makes runs comparable.  On the shared 2-core VM the benchmark was
#: written on, the probe's median ranged from about 23 to 35 ms; this value
#: keeps host figures near CPU seconds there, and keeps a run's CPU time
#: within the runner's wall-time cap when the machine is at its slowest.
REFERENCE_S = 0.030

_N = 1 << 16


class _Node:
    __slots__ = ("key", "next")

    def __init__(self, key: int, nxt: "_Node | None") -> None:
        self.key = key
        self.next = nxt


class Probe:
    """The probe's inputs are built once, so a call times only the work."""

    def __init__(self) -> None:
        keys = (np.arange(_N, dtype=np.int64) * 2654435761) % (_N * 4)
        self.keys = keys
        self.sorted = np.sort(keys)
        self.perm = np.argsort(keys, kind="stable")
        self.vals = np.linspace(0.0, 1.0, _N)

    def _interpreter(self) -> int:
        table: dict = {}
        head = None
        acc = 0
        for i in range(6000):
            k = (i * 7919) & 1023
            table[k] = table.get(k, 0) + i
            head = _Node(k, head)
            acc += len(str(k))
        items = sorted(table.items())
        while head is not None:
            acc ^= head.key
            head = head.next
        return acc + len(items)

    def _numpy(self) -> float:
        total = 0.0
        for _ in range(2):
            s = np.sort(self.keys)
            pos = np.searchsorted(self.sorted, self.keys)
            g = self.vals[self.perm]
            c = np.bincount(self.keys & 4095, weights=g, minlength=4096)
            u = np.unique(self.keys[: _N // 4] & 8191)
            total += float(s[-1] + pos[7] + np.cumsum(c)[-1] + u.size)
        for _ in range(150):  # small-array call overhead
            total += float(np.add(self.vals[:64], 1.0).sum())
        return total

    def __call__(self) -> float:
        """CPU seconds of one probe."""
        c0 = time.process_time()
        self._interpreter()
        self._numpy()
        return time.process_time() - c0

