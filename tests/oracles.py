"""Reference formulations the production planners are pinned against.

* :class:`DenseKernel` — :class:`~repro.core.kernel.PlannerKernel` with
  every incremental cache replaced by the textbook full recompute: the
  ``cov @ rem`` residual awards, an ``(m, n)`` masked row-max for the
  residual hover times and partial awards, a full cheapest-insertion scan
  per call, and coverage rows read from the dense matrix.
* :class:`LegacyPruneCache` — the baseline's prune loop as a full rescan
  of every removal ratio per round.
* :func:`dense_w2` — Algorithm 1's auxiliary-graph weights (Eq. 9) as the
  dense ``(m+1, m+1)`` matrix, built in place in the production
  operator's operation order; :func:`dense_auxgraph` plans Algorithm 1
  over it instead of the on-demand :class:`~repro.core.auxgraph.W2Costs`.
* :func:`overlap_matrix` / :func:`dense_overlap_conflicts` — the conflict
  lists read row by row off a dense ``(m, m)`` overlap matrix.
* :func:`networkx_matching` / :func:`networkx_christofides` — the
  Christofides tour with networkx's blossom matching and Euler circuit,
  as the package built it before both moved in-house
  (:mod:`repro.tsp.matching`).  networkx is a test-only dependency.

:func:`dense_planners`, :func:`legacy_prune` and :func:`dense_auxgraph`
install them into the planner modules for the duration of a ``with``
block, so a test plans the same instance both ways through the public
planner functions (:func:`kernel_and_dense` and :func:`plan_on` do
exactly that).  All are plain context managers (not fixtures), so
hypothesis tests can use them.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Any, Iterator, List, Optional, Tuple
from unittest import mock

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import minimum_spanning_tree

from repro.core import algorithm1, algorithm2, algorithm3, benchmark_alg
from repro.core.auxgraph import W2Costs
from repro.core.batch import plan_algorithm2_batch, plan_algorithm3_batch
from repro.core.kernel import PlannerKernel, PruneCache
from repro.geometry.distance import pairwise_distances
from repro.orienteering.problem import OrienteeringInstance
from repro.tsp.length import validate_tour

#: The ways a test can plan one Algorithm 2/3 cell (see :func:`plan_on`).
IMPLEMENTATIONS = ("kernel", "dense", "batch")


class _DenseRows:
    """The one coverage query the drains make, answered from the dense matrix."""

    def __init__(self, cov_matrix: np.ndarray) -> None:
        self.cov_matrix = cov_matrix

    def sensors_of(self, site: int) -> np.ndarray:
        return np.flatnonzero(self.cov_matrix[site])


class DenseKernel(PlannerKernel):
    """Full-recompute planner state: O(m·n + m·|tour|) per call."""

    def __init__(self, sites, energy, radio, **kwargs) -> None:
        super().__init__(sites, energy, radio, **kwargs)
        self.csr = _DenseRows(sites.cov_matrix)

    def residual_scores(self) -> Tuple[np.ndarray, np.ndarray]:
        self._p_res = self.sites.residual_awards(self.rem)
        self._t_res = self.sites.residual_hover_times(self.rem)
        self.counters["sites_rescored"] += self.m
        return self._p_res, self._t_res

    def partial_scores(self, fractions
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        fractions = np.asarray(fractions, dtype=float)
        R = np.where(self.sites.cov_matrix, self.rem[None, :], 0.0)
        t_max = (R.max(axis=1) if self.n else np.zeros(self.m)) \
            / self.bandwidth
        tau = t_max[:, None] * fractions[None, :]
        p_partial = np.empty((self.m, len(fractions)))
        for k in range(len(fractions)):
            p_partial[:, k] = np.minimum(
                R, (self.bandwidth * tau[:, k])[:, None]).sum(axis=1)
        self._t_res = t_max
        self.counters["sites_rescored"] += self.m
        return t_max, tau, p_partial

    def insertion_state(self) -> Tuple[np.ndarray, np.ndarray]:
        self._flush_insertion()
        return self._ins_deltas.copy(), (self._ins_edges + 1).astype(int)

    def insert(self, site: int) -> int:
        if self._ins_stale:
            self._flush_insertion()
        pos = int(self._ins_edges[site]) + 1
        self.tour.insert(pos, site + 1)
        self.in_tour[site + 1] = True
        self._ins_stale = True
        self.counters["insertions"] += 1
        return pos

    def perf(self):
        snap = super().perf()
        snap["engine"] = "dense"
        return snap


class LegacyPruneCache(PruneCache):
    """The baseline's prune loop with a full ratio rescan per removal."""

    def set_tour(self, tour) -> None:
        self.tour = [int(v) for v in tour]

    def best(self) -> int:
        tour, dist = self.tour, self.dist
        best_i, best_ratio = -1, np.inf
        k = len(tour)
        for i in range(k):
            v = tour[i]
            if v == 0:
                continue
            prev_node = tour[i - 1]
            next_node = tour[(i + 1) % k]
            saved_travel = (dist[prev_node, v] + dist[v, next_node]
                            - dist[prev_node, next_node])
            saved = (self.hover_times[v - 1] * self.eta_h
                     + saved_travel * self.etat_m)
            self.rescored += 1
            # Data lost per joule saved; a zero saving has an infinite
            # ratio and is never preferred over a real saving.
            ratio = self.volumes[v - 1] / saved if saved > 1e-12 else np.inf
            if ratio < best_ratio:
                best_ratio, best_i = ratio, i
        return best_i

    def remove(self, i: int) -> int:
        return self.tour.pop(i)


def dense_w2(points: np.ndarray, w1: np.ndarray, rate: float) -> np.ndarray:
    """Eq. 9 as the dense matrix: the pre-operator in-place build."""
    dist = pairwise_distances(points)
    dist *= rate
    costs = w1[:, None] + w1[None, :]
    costs *= 0.5
    costs += dist
    np.fill_diagonal(costs, 0.0)
    return costs


def _dense_instance(*, costs: Any, **kwargs: Any) -> OrienteeringInstance:
    if isinstance(costs, W2Costs):
        costs = dense_w2(costs.points, costs.w1, costs.rate)
    return OrienteeringInstance(costs=costs, **kwargs)


@contextmanager
def dense_auxgraph() -> Iterator[None]:
    """Plan Algorithm 1 over the dense :func:`dense_w2` matrix."""
    with mock.patch.object(algorithm1, "OrienteeringInstance",
                           _dense_instance):
        yield


def overlap_matrix(sites) -> np.ndarray:
    """Boolean ``(m, m)``: sites whose coverage sets intersect (no diagonal)."""
    cov = sparse.csr_matrix(sites.cov_matrix)
    inter = (cov @ cov.T).toarray() > 0
    np.fill_diagonal(inter, False)
    return inter


def dense_overlap_conflicts(sites) -> List[np.ndarray]:
    """Per-node conflict lists from :func:`overlap_matrix` (depot first)."""
    lists = [np.empty(0, dtype=int)]
    for row in overlap_matrix(sites):
        lists.append(np.flatnonzero(row) + 1)
    return lists


@contextmanager
def dense_planners() -> Iterator[None]:
    """Run Algorithms 2/3 on :class:`DenseKernel` inside the block."""
    with mock.patch.object(algorithm2, "PlannerKernel", DenseKernel), \
            mock.patch.object(algorithm3, "PlannerKernel", DenseKernel):
        yield


@contextmanager
def legacy_prune() -> Iterator[None]:
    """Run the baseline on :class:`LegacyPruneCache` inside the block."""
    with mock.patch.object(benchmark_alg, "PruneCache", LegacyPruneCache):
        yield


def kernel_and_dense(planner, *args: Any, **kwargs: Any) -> Tuple[Any, Any]:
    """*planner*'s tour on the incremental kernel and on the dense oracle."""
    kernel = planner(*args, **kwargs)
    with dense_planners():
        dense = planner(*args, **kwargs)
    return kernel, dense


def plan_on(implementation: str, planner, network, energy, radio,
            delta: float, **kwargs: Any):
    """One Algorithm 2/3 cell planned by *implementation*.

    ``"kernel"`` is the production per-cell path, ``"dense"`` the same
    planner on :class:`DenseKernel`, and ``"batch"`` a one-variant
    column of the planner's stacked sibling.
    """
    if implementation == "batch":
        stacked = {algorithm2.plan_algorithm2: plan_algorithm2_batch,
                   algorithm3.plan_algorithm3: plan_algorithm3_batch}[planner]
        return stacked(network, [energy], radio, delta, **kwargs)[0]
    with dense_planners() if implementation == "dense" else nullcontext():
        return planner(network, energy, radio, delta, **kwargs)


def _networkx():
    import networkx as nx  # test-only dependency
    return nx


def networkx_matching(cost: np.ndarray) -> np.ndarray:
    """``mate`` of ``networkx.min_weight_matching`` on the complete graph
    whose edge ``(a, b)``, ``a < b``, weighs ``cost[a, b]``."""
    nx = _networkx()
    k = cost.shape[0]
    graph = nx.Graph()
    graph.add_nodes_from(range(k))
    for a in range(k):
        for b in range(a + 1, k):
            graph.add_edge(a, b, weight=float(cost[a, b]))
    mate = np.full(k, -1, dtype=np.intp)
    for a, b in nx.min_weight_matching(graph):
        mate[a], mate[b] = b, a
    return mate


def networkx_christofides(dist: np.ndarray, start: int = 0,
                          nodes: Optional[np.ndarray] = None) -> np.ndarray:
    """:func:`repro.tsp.christofides.christofides_tour` with networkx's
    matching and Euler circuit (inputs assumed valid)."""
    nx = _networkx()
    d = np.asarray(dist, dtype=float)
    n = d.shape[0]
    pool = np.arange(n) if nodes is None else np.asarray(nodes, dtype=int)
    k = len(pool)
    if k <= 2:
        rest = pool[pool != start]
        return np.concatenate([[start], rest]).astype(int)
    sub = d[np.ix_(pool, pool)]
    shift = max(1.0, float(sub.max()))
    shifted = sub + shift
    np.fill_diagonal(shifted, 0.0)
    mst = minimum_spanning_tree(shifted).toarray()
    degree = ((mst + mst.T) > 0).sum(axis=1)
    odd = np.flatnonzero(degree % 2 == 1)
    g_odd = nx.Graph()
    g_odd.add_nodes_from(range(len(odd)))
    for a in range(len(odd)):
        for b in range(a + 1, len(odd)):
            g_odd.add_edge(a, b, weight=float(sub[odd[a], odd[b]]))
    matching = nx.min_weight_matching(g_odd)
    multi = nx.MultiGraph()
    multi.add_nodes_from(range(k))
    for a, b in zip(*np.nonzero(mst)):
        multi.add_edge(int(a), int(b))
    for a, b in matching:
        multi.add_edge(int(odd[a]), int(odd[b]))
    start_local = int(np.flatnonzero(pool == start)[0])
    seen = np.zeros(k, dtype=bool)
    order = []
    for a, _b in nx.eulerian_circuit(multi, source=start_local):
        if not seen[a]:
            seen[a] = True
            order.append(a)
    return validate_tour(pool[np.asarray(order, dtype=int)], n)
