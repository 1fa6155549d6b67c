"""Summary statistics shared by every clock."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple

#: The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Tuple[float, float, int]:
    """``(value, percentile, samples)`` of the highest percentile with ≥ ``beyond`` samples above it.

    With ``n`` sorted samples that is the ``(n - beyond)``-th smallest, i.e.
    the nearest-rank percentile ``100·(n - beyond)/n``.  With ``n <= beyond``
    no percentile qualifies; the maximum is returned at percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n <= beyond:
        return xs[-1], 100.0, n
    k = n - beyond  # 1-based rank
    return xs[k - 1], 100.0 * k / n, n


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))
