"""Construction heuristics: nearest neighbour and cheapest insertion.

Cheapest insertion is the workhorse of the planners' *fast* incremental-TSP
mode: when Algorithm 2/3 evaluate a candidate hovering location they need
``TSP(S ∪ {c}) - TSP(S)`` for every candidate ``c``; the cheapest-insertion
delta gives a tight upper bound in O(|tour|) per candidate and is exact for
the marginal insertion they actually perform.  Those callers keep every
candidate's cheapest insertion cached across insertions and repair it with
:func:`repair_insertion_cache` instead of rescanning the tour.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.utils.errors import InvalidParameterError


def nearest_neighbor_tour(dist: np.ndarray, start: int = 0) -> np.ndarray:
    """Greedy nearest-neighbour tour over all nodes of *dist*.

    Parameters
    ----------
    dist:
        Symmetric ``(n, n)`` distance matrix.
    start:
        Index of the first node (the depot).
    """
    n = len(dist)
    if n == 0:
        return np.empty(0, dtype=int)
    if not (0 <= start < n):
        raise InvalidParameterError(f"start index {start} out of range [0, {n})")
    visited = np.zeros(n, dtype=bool)
    tour = np.empty(n, dtype=int)
    tour[0] = start
    visited[start] = True
    current = start
    for i in range(1, n):
        # Mask visited nodes with +inf, then take the arg-min row lookup.
        row = np.where(visited, np.inf, dist[current])
        current = int(np.argmin(row))
        tour[i] = current
        visited[current] = True
    return tour


def insertion_delta(tour: np.ndarray, dist: np.ndarray, node: int) -> Tuple[float, int]:
    """Cheapest cost increase of inserting *node* into the closed *tour*.

    Returns ``(delta, position)`` where *position* is the index in the tour
    *before which* the node should be inserted (i.e. the new node lands
    between ``tour[position-1]`` and ``tour[position]``, with wraparound).

    Edge cases: an empty tour has delta 0 (tour becomes ``[node]``); a
    single-node tour gains the out-and-back leg ``2 * dist[a, node]``.
    """
    m = len(tour)
    if m == 0:
        return 0.0, 0
    if m == 1:
        return float(2.0 * dist[tour[0], node]), 1
    nxt = np.roll(tour, -1)
    # delta_i = d(tour_i, node) + d(node, tour_{i+1}) - d(tour_i, tour_{i+1})
    deltas = dist[tour, node] + dist[node, nxt] - dist[tour, nxt]
    best = int(np.argmin(deltas))
    return float(deltas[best]), (best + 1) % m if m > 1 else 1


def repair_insertion_cache(deltas: np.ndarray, edges: np.ndarray, e,
                           via_new: Tuple[np.ndarray, np.ndarray]
                           ) -> np.ndarray:
    """Repair a cheapest-insertion cache after an insertion on edge *e*.

    ``deltas[c]`` is candidate ``c``'s cheapest insertion delta and
    ``edges[c]`` the first tour edge attaining it (edge ``i`` joins tour
    positions ``i`` and ``i + 1``, cyclically).  Inserting a node on edge
    ``e`` destroys that edge, creates edges ``e`` and ``e + 1`` and
    shifts every later edge up by one; *via_new* holds every candidate's
    delta against the two new edges, in that order.

    Both arrays are updated in place: every candidate's cached best is
    compared against the better of the two new edges, exact ties going
    to the lower edge index as a fresh first-minimum ``argmin`` would.
    A *dead* candidate — one whose best edge was the destroyed one — has
    a delta on every surviving edge at least its delta on ``e``, which
    was its minimum; so when a new edge beats that delta strictly, the
    new edge is exactly what a fresh scan returns, and the candidate is
    settled here.  Returns the indices of the dead candidates that
    neither new edge beats strictly (exact ties included): their entries
    are stale and the caller must rescan them against the whole tour.
    """
    dead = edges == e
    edges += edges > e
    second = via_new[1] < via_new[0]
    cand = np.where(second, via_new[1], via_new[0])
    new_edge = second + e
    better = (cand < deltas) | ((cand == deltas) & (new_edge < edges))
    np.copyto(deltas, cand, where=better)
    np.copyto(edges, new_edge, where=better)
    dead &= ~better
    return np.flatnonzero(dead)


def best_insertion(tour: np.ndarray, dist: np.ndarray, node: int) -> np.ndarray:
    """Insert *node* into *tour* at its cheapest position; returns a new tour."""
    m = len(tour)
    if m == 0:
        return np.array([node], dtype=int)
    _, pos = insertion_delta(tour, dist, node)
    if pos == 0:
        pos = m  # appending at the end is equivalent for a closed tour
    return np.insert(tour, pos, node)


def cheapest_insertion_tour(dist: np.ndarray, start: int = 0,
                            nodes: Optional[Sequence[int]] = None) -> np.ndarray:
    """Cheapest-insertion tour over *nodes* (default: all nodes).

    Starts from the degenerate tour ``[start]`` and repeatedly inserts the
    node whose cheapest insertion is globally cheapest.
    """
    n = len(dist)
    if n == 0:
        return np.empty(0, dtype=int)
    pool = list(range(n)) if nodes is None else [int(v) for v in nodes]
    if start not in pool:
        raise InvalidParameterError("start must be among the nodes to tour")
    if len(set(pool)) != len(pool):
        raise InvalidParameterError("duplicate node in pool")
    remaining = set(pool)
    remaining.discard(start)
    tour = np.array([start], dtype=int)
    while remaining:
        best_node, best_delta, best_pos = -1, np.inf, 0
        for v in remaining:
            delta, pos = insertion_delta(tour, dist, v)
            if delta < best_delta:
                best_node, best_delta, best_pos = v, delta, pos
        pos = best_pos if best_pos != 0 else len(tour)
        tour = np.insert(tour, pos, best_node)
        remaining.discard(best_node)
    return tour


__all__ = [
    "nearest_neighbor_tour",
    "insertion_delta",
    "best_insertion",
    "repair_insertion_cache",
    "cheapest_insertion_tour",
]
