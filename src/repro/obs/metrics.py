"""The nearest-rank quantile shared by the trace report and the ledger gate."""

from __future__ import annotations

import math
from typing import Sequence


def nearest_rank(n: int, q: float) -> int:
    """The 1-based nearest-rank index of quantile *q* in *n* samples.

    The single quantile definition shared by the trace report's
    percentile column and the regression observatory's p50/p95
    aggregation (``rank = max(1, ceil(q * n))``; 0 when there are no
    samples).  Raises for ``q`` outside ``[0, 1]``.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if n <= 0:
        return 0
    return max(1, math.ceil(q * n))


def quantile_sorted(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending sequence (0.0 when empty)."""
    rank = nearest_rank(len(sorted_values), q)
    if rank == 0:
        return 0.0
    return sorted_values[rank - 1]


__all__ = ["nearest_rank", "quantile_sorted"]
