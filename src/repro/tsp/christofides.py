"""Christofides' 1.5-approximation for metric TSP (Christofides 1976).

This is the tour subroutine the paper specifies for Algorithm 2/3's
``TSP(S_j)`` evaluations and for the benchmark baseline's initial tour.

Pipeline (implemented from scratch on numpy and scipy):

1. minimum spanning tree of the complete graph,
2. minimum-weight perfect matching on the odd-degree MST vertices
   (:func:`repro.tsp.matching.min_weight_perfect_matching`),
3. union multigraph is Eulerian; take an Euler circuit,
4. shortcut repeated vertices (valid by the triangle inequality).

Steps 2 and 3 reproduce networkx's ``min_weight_matching`` and
``eulerian_circuit`` choice for choice, so the tour is bitwise the one
the networkx-based construction (``tests/oracles.py``) returns.

The distance matrix must be (approximately) metric for the 1.5 guarantee;
the function itself works on any symmetric non-negative matrix.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.sparse.csgraph import minimum_spanning_tree

from repro.obs.tracer import span
from repro.tsp.length import validate_tour
from repro.tsp.matching import min_weight_perfect_matching
from repro.utils.errors import InvalidParameterError


def _check_matrix(dist: np.ndarray) -> np.ndarray:
    d = np.asarray(dist, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise InvalidParameterError(f"dist must be square, got shape {d.shape}")
    if not np.isfinite(d).all():
        raise InvalidParameterError("dist contains non-finite entries")
    if (d < 0).any():
        raise InvalidParameterError("dist contains negative entries")
    if not np.allclose(d, d.T, rtol=1e-9, atol=1e-9):
        raise InvalidParameterError("dist must be symmetric")
    return d


def _euler_first_visits(k: int, edges: List[Tuple[int, int]],
                        start: int) -> List[int]:
    """Vertices of an Euler circuit from *start*, first visits only.

    Hierholzer's algorithm in the exact order ``networkx.eulerian_circuit``
    walks a multigraph built by adding *edges* in order: that function
    walks a *copy*, in which each vertex lists its smaller neighbours
    first, ascending, then its larger ones in edge order; every step takes
    the first remaining neighbour.  Shortcutting the circuit to first
    visits (step 4) gives the tour.
    """
    mult: Dict[Tuple[int, int], int] = {}
    firsts: List[List[int]] = [[] for _ in range(k)]  # first-edge order
    for a, b in edges:
        key = (min(a, b), max(a, b))
        if key not in mult:
            firsts[a].append(b)
            firsts[b].append(a)
        mult[key] = mult.get(key, 0) + 1
    adj = [{x: mult[(min(u, x), max(u, x))]
            for x in sorted(x for x in nbrs if x < u)
            + [x for x in nbrs if x > u]}
           for u, nbrs in enumerate(firsts)]
    stack = [start]
    popped: List[int] = []
    while stack:
        u = stack[-1]
        out = adj[u]
        if not out:
            popped.append(stack.pop())
            continue
        v = next(iter(out))
        stack.append(v)
        if out[v] == 1:
            del out[v], adj[v][u]
        else:
            out[v] -= 1
            adj[v][u] -= 1
    # The circuit's edges run between consecutive pops; its vertex
    # sequence is every pop but the last (the start again).
    visited = [False] * k
    order = []
    for u in popped[:-1]:
        if not visited[u]:
            visited[u] = True
            order.append(u)
    return order


def christofides_tour(dist: np.ndarray, start: int = 0,
                      nodes: Optional[np.ndarray] = None) -> np.ndarray:
    """Christofides tour over *nodes* (default all) of the matrix *dist*.

    Parameters
    ----------
    dist:
        Symmetric non-negative ``(n, n)`` distance matrix.
    start:
        Node the returned tour begins at (must be in *nodes*).
    nodes:
        Optional subset of node indices to tour; the planners pass the
        current hovering-location set here so the full matrix is computed
        only once per instance.

    Returns
    -------
    numpy.ndarray
        A permutation of *nodes* beginning at *start*, interpreted as a
        closed tour.
    """
    d = _check_matrix(dist)
    n = d.shape[0]
    pool = np.arange(n) if nodes is None else np.asarray(nodes, dtype=int)
    if len(pool) and (pool.min() < 0 or pool.max() >= n):
        raise InvalidParameterError("nodes contains indices outside the matrix")
    if len(np.unique(pool)) != len(pool):
        raise InvalidParameterError("nodes contains duplicates")
    if start not in pool:
        raise InvalidParameterError(f"start node {start} not in the node set")
    k = len(pool)
    if k <= 2:
        # 1 node: stay put; 2 nodes: out-and-back. Both trivially optimal.
        rest = pool[pool != start]
        return np.concatenate([[start], rest]).astype(int)

    with span("tsp.christofides"):
        sub = d[np.ix_(pool, pool)]

        # 1. MST on the subset (scipy is much faster than nx for dense
        #    input).  scipy's sparse MST treats exact zeros as "no edge",
        #    which would disconnect coincident points; shifting every edge
        #    by a constant leaves the arg-min spanning tree unchanged (all
        #    trees gain the same (k-1)*shift) while keeping zero-length
        #    edges representable.
        shift = max(1.0, float(sub.max()))
        shifted = sub + shift
        np.fill_diagonal(shifted, 0.0)
        mst = minimum_spanning_tree(shifted).toarray()
        mst_sym = mst + mst.T

        degree = (mst_sym > 0).sum(axis=1)
        odd = np.flatnonzero(degree % 2 == 1)
        # Handshake lemma: the number of odd-degree vertices is even.
        assert len(odd) % 2 == 0, "odd-degree vertex count must be even"

        # 2. Min-weight perfect matching on the odd vertices.
        mate = min_weight_perfect_matching(sub[np.ix_(odd, odd)])

        # 3./4. Multigraph = MST + matching edges; it is connected with
        #    all-even degrees, hence Eulerian: walk it and shortcut.
        ii, jj = np.nonzero(mst)
        pairs = np.flatnonzero(mate > np.arange(len(odd)))
        edges = list(zip(ii.tolist(), jj.tolist()))
        edges += zip(odd[pairs].tolist(), odd[mate[pairs]].tolist())
        start_local = int(np.flatnonzero(pool == start)[0])
        order = _euler_first_visits(k, edges, start_local)
        # The Euler circuit visits every vertex (connected multigraph).
        assert len(order) == k, "Euler circuit missed a vertex"

        tour = pool[np.asarray(order, dtype=int)]
        return validate_tour(tour, n)


__all__ = ["christofides_tour"]
