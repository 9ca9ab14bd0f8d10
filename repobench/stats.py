"""Percentiles with the sample-count rule the benchmark reports by."""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], pct: float,
               fixed: bool = False) -> float:
    """Linear-interpolated ``pct``-th percentile.

    Refuses to report a percentile with fewer than ten samples beyond
    it, unless ``fixed``: the values are then the whole of a fixed set
    of operations (the cells of a closed loop), not samples drawn from
    a distribution, and the percentile is the nearest-rank value, one
    operation's own time rather than a blend of two different ones.
    ``math.inf`` entries (refused or failed requests) sort last, so
    they count as missing any latency limit.
    """
    ordered = sorted(values)
    if fixed:
        return ordered[max(math.ceil(len(ordered) * pct / 100.0), 1) - 1]
    beyond = len(ordered) * (100 - pct) / 100.0
    if beyond < 10:
        raise ValueError(f"p{pct:g} needs at least ten samples beyond it; "
                         f"have {len(ordered)} samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    if math.isinf(ordered[high]):
        return ordered[high] if rank > low else ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
