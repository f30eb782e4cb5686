"""Exact orienteering via Held–Karp-style subset dynamic programming.

For every subset ``S`` of non-depot nodes and endpoint ``j in S`` the DP
computes the cheapest open path ``depot -> ... -> j`` visiting exactly
``S``; a subset is *reachable* when some endpoint's path plus the closing
edge fits the budget.  The optimum is the maximum award over reachable,
conflict-free subsets.

O(2^n * n^2) — the test oracle for the heuristic solvers (n <= ~14).
"""

from __future__ import annotations

import numpy as np

from repro.orienteering.problem import OrienteeringInstance, OrienteeringSolution, make_solution
from repro.utils.errors import InvalidParameterError

#: Subset DP hard limit (memory ~ n * 2^n doubles).
MAX_EXACT_NODES = 18


def solve_exact(instance: OrienteeringInstance) -> OrienteeringSolution:
    """Optimal orienteering solution by subset DP.

    Raises
    ------
    InvalidParameterError
        When the instance has more than :data:`MAX_EXACT_NODES` nodes.
    """
    n = instance.n_nodes
    if n > MAX_EXACT_NODES:
        raise InvalidParameterError(
            f"solve_exact limited to n <= {MAX_EXACT_NODES}, got n = {n}")
    depot = instance.depot
    d = instance.costs.rows(np.arange(n))
    budget = instance.budget

    others = [v for v in range(n) if v != depot]
    m = len(others)
    if m == 0:
        return make_solution(instance, np.array([depot]), "exact-dp")
    full = 1 << m

    # Conflict masks: one bitmask per conflicting pair (groups of any size
    # decompose into their pairs — "at most one of the group" is exactly
    # "no conflicting pair together").
    group_masks = []
    if instance.has_conflicts:
        pos_of = {v: i for i, v in enumerate(others)}
        seen = set()
        for v in others:
            for u in instance.neighbors_of(v):
                u = int(u)
                pair = (min(v, u), max(v, u))
                if pair in seen:
                    continue
                seen.add(pair)
                if pair[0] in pos_of and pair[1] in pos_of:
                    group_masks.append((1 << pos_of[pair[0]])
                                       | (1 << pos_of[pair[1]]))

    dp = np.full((full, m), np.inf)
    for i, v in enumerate(others):
        dp[1 << i, i] = d[depot, v]
    for mask in range(1, full):
        row = dp[mask]
        live = np.flatnonzero(np.isfinite(row))
        if len(live) == 0:
            continue
        rest = ~mask & (full - 1)
        for i in live:
            base = row[i]
            vi = others[i]
            j = rest
            while j:
                low = j & -j
                k = low.bit_length() - 1
                cand = base + d[vi, others[k]]
                nm = mask | low
                if cand < dp[nm, k]:
                    dp[nm, k] = cand
                j ^= low

    # Closing edge back to the depot, vectorised over endpoints.
    back = np.array([d[v, depot] for v in others])
    close = dp + back[None, :]          # (full, m) total closed-tour costs
    min_close = close.min(axis=1)       # cheapest closed tour per subset

    awards_others = np.array([instance.awards[v] for v in others])
    base_award = float(instance.awards[depot])

    best_award = base_award
    best_mask = 0
    for mask in range(1, full):
        if min_close[mask] > budget + 1e-9:
            continue
        ok = True
        for gm in group_masks:
            if bin(mask & gm).count("1") > 1:
                ok = False
                break
        if not ok:
            continue
        award = base_award
        mm = mask
        while mm:
            low = mm & -mm
            award += awards_others[low.bit_length() - 1]
            mm ^= low
        if award > best_award + 1e-12:
            best_award = award
            best_mask = mask

    if best_mask == 0:
        return make_solution(instance, np.array([depot]), "exact-dp")

    # Reconstruct the cheapest closed tour for the winning subset by
    # re-running parent tracking on that subset only.
    members = [others[i] for i in range(m) if best_mask & (1 << i)]
    tour = _cheapest_closed_tour(instance, members)
    return make_solution(instance, tour, "exact-dp")


def _cheapest_closed_tour(instance: OrienteeringInstance, members) -> np.ndarray:
    """Exact cheapest closed tour through depot + *members* (small sets)."""
    depot = instance.depot
    d = instance.costs.rows(np.arange(instance.n_nodes))
    m = len(members)
    full = 1 << m
    dp = np.full((full, m), np.inf)
    parent = np.full((full, m), -1, dtype=int)
    for i, v in enumerate(members):
        dp[1 << i, i] = d[depot, v]
    for mask in range(1, full):
        row = dp[mask]
        live = np.flatnonzero(np.isfinite(row))
        rest = ~mask & (full - 1)
        for i in live:
            vi = members[i]
            base = row[i]
            j = rest
            while j:
                low = j & -j
                k = low.bit_length() - 1
                cand = base + d[vi, members[k]]
                nm = mask | low
                if cand < dp[nm, k]:
                    dp[nm, k] = cand
                    parent[nm, k] = i
                j ^= low
    totals = dp[full - 1] + np.array([d[v, depot] for v in members])
    best = int(np.argmin(totals))
    order = []
    mask, i = full - 1, best
    while i != -1:
        order.append(members[i])
        pi = parent[mask, i]
        mask ^= 1 << i
        i = pi
    order.reverse()
    return np.array([depot] + order, dtype=int)


__all__ = ["solve_exact", "MAX_EXACT_NODES"]
