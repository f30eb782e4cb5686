"""Path orienteering and the paper's dummy-depot construction.

Algorithm 1's pseudo-code does not solve closed-tour orienteering
directly: it adds a dummy depot ``d'`` (a copy of ``d`` with the same
edges) and finds a maximum-award *simple path* from ``d`` to ``d'`` within
budget (paper Algorithm 1, steps 3–4).  A ``d → d'`` path in the augmented
graph is exactly a closed tour through ``d`` in the original graph, so the
two formulations are equivalent.  The package's planners use the
closed-tour form; this test oracle keeps the path form plus the
equivalence machinery (``tests/test_orienteering_path.py`` asserts the
equivalence on random instances against ``repro.orienteering.exact``).

Contents:

* :func:`augment_with_dummy_depot` — build the paper's augmented instance,
* :func:`solve_path_exact` — exact max-award ``s → t`` path DP,
* :func:`path_to_tour` / :func:`tour_to_path` — the bijection between
  ``d → d'`` paths and closed tours.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.orienteering.problem import OrienteeringInstance
from repro.utils.errors import InvalidParameterError

#: Subset-DP limit (see repro.orienteering.exact).
MAX_PATH_NODES = 18


def augment_with_dummy_depot(instance: OrienteeringInstance
                             ) -> Tuple[OrienteeringInstance, int]:
    """The paper's construction: append ``d'`` mirroring the depot's edges.

    Returns the augmented instance and the dummy's node index (``n``).
    The dummy has award 0 and distance 0 to the depot; conflicts carry
    over unchanged (the dummy conflicts with nothing).
    """
    n = instance.n_nodes
    dense = instance.costs.rows(np.arange(n))
    costs = np.zeros((n + 1, n + 1))
    costs[:n, :n] = dense
    costs[n, :n] = dense[instance.depot, :]
    costs[:n, n] = dense[:, instance.depot]
    costs[n, n] = 0.0
    costs[instance.depot, n] = costs[n, instance.depot] = 0.0
    awards = np.concatenate([instance.awards, [0.0]])
    neighbors = None
    if instance.has_conflicts:
        neighbors = [instance.neighbors_of(v) for v in range(n)]
        neighbors.append(np.empty(0, dtype=int))
    return OrienteeringInstance(costs=costs, awards=awards,
                                budget=instance.budget,
                                depot=instance.depot,
                                conflict_neighbor_lists=neighbors), n


def solve_path_exact(instance: OrienteeringInstance, source: int,
                     target: int) -> Tuple[np.ndarray, float]:
    """Exact max-award simple path ``source -> target`` within budget.

    Subset DP over intermediate nodes; O(2^n * n^2).  Returns
    ``(path, award)`` where the path includes both endpoints.  Conflicts
    (if configured) are respected.

    Raises
    ------
    InvalidParameterError
        On out-of-range endpoints or oversize instances.
    """
    n = instance.n_nodes
    if n > MAX_PATH_NODES:
        raise InvalidParameterError(
            f"solve_path_exact limited to n <= {MAX_PATH_NODES}, got {n}")
    if not (0 <= source < n) or not (0 <= target < n):
        raise InvalidParameterError("endpoint out of range")
    if source == target:
        raise InvalidParameterError(
            "source and target must differ (use the closed-tour solver)")
    d = instance.costs.rows(np.arange(n))
    budget = instance.budget
    inner = [v for v in range(n) if v not in (source, target)]
    m = len(inner)
    full = 1 << m

    # dp[mask, i] = min cost of source -> ... -> inner[i] visiting mask.
    dp = np.full((full, m), np.inf)
    parent = np.full((full, m), -1, dtype=int)
    for i, v in enumerate(inner):
        dp[1 << i, i] = d[source, v]
    for mask in range(1, full):
        row = dp[mask]
        live = np.flatnonzero(np.isfinite(row))
        rest = ~mask & (full - 1)
        for i in live:
            base = row[i]
            vi = inner[i]
            j = rest
            while j:
                low = j & -j
                k = low.bit_length() - 1
                cand = base + d[vi, inner[k]]
                nm = mask | low
                if cand < dp[nm, k]:
                    dp[nm, k] = cand
                    parent[nm, k] = i
                j ^= low

    base_award = float(instance.awards[source] + instance.awards[target])
    best_award = base_award if d[source, target] <= budget + 1e-9 else -np.inf
    best_mask, best_last = 0, -1
    for mask in range(1, full):
        row = dp[mask]
        live = np.flatnonzero(np.isfinite(row))
        if len(live) == 0:
            continue
        closes = row[live] + np.array([d[inner[i], target] for i in live])
        ok = closes <= budget + 1e-9
        if not ok.any():
            continue
        members = [inner[i] for i in range(m) if mask & (1 << i)]
        if instance.has_conflicts and not instance.conflicts_ok(
                [source, target, *members]):
            continue
        award = base_award + float(instance.awards[members].sum())
        if award > best_award + 1e-12:
            best_award = award
            best_mask = mask
            best_last = int(live[ok][int(np.argmin(closes[ok]))])

    if best_last < 0 and best_award == -np.inf:
        raise InvalidParameterError(
            "no budget-feasible path between the endpoints")
    if best_last < 0:
        return np.array([source, target]), base_award
    order = []
    mask, i = best_mask, best_last
    while i != -1:
        order.append(inner[i])
        pi = parent[mask, i]
        mask ^= 1 << i
        i = pi
    order.reverse()
    return np.array([source, *order, target]), best_award


def path_to_tour(path: np.ndarray, dummy: int) -> np.ndarray:
    """Collapse a ``d -> ... -> d'`` path into a closed tour through ``d``."""
    arr = np.asarray(path, dtype=int)
    if len(arr) < 2 or arr[-1] != dummy:
        raise InvalidParameterError("path must end at the dummy depot")
    return arr[:-1]


def tour_to_path(tour: np.ndarray, dummy: int) -> np.ndarray:
    """Expand a closed tour through the depot into a ``d -> d'`` path."""
    arr = np.asarray(tour, dtype=int)
    if len(arr) == 0:
        raise InvalidParameterError("tour must be non-empty")
    return np.concatenate([arr, [dummy]])


__all__ = [
    "augment_with_dummy_depot",
    "solve_path_exact",
    "path_to_tour",
    "tour_to_path",
    "MAX_PATH_NODES",
]
