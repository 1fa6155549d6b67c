"""The replay-record name shared by capture, the profiler and its readers.

Iterative algorithms (BFS, PageRank, delta-stepping) re-issue the same
kernel sequence every iteration.  The lazy layer captures such loops
automatically (:mod:`repro.lazy.capture`) and charges each steady-state
run as one aggregated profiler record, the CUDA Graphs analogue.  Every
such record's name starts with :data:`REPLAY_PREFIX`; this module is the
single definition of that name.
"""

from __future__ import annotations

__all__ = ["REPLAY_PREFIX"]

REPLAY_PREFIX = "graph_replay["
