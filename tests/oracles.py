"""Reference formulations the production planners are pinned against.

* :class:`DenseKernel` — :class:`~repro.core.kernel.PlannerKernel` with
  every incremental cache replaced by the textbook full recompute: the
  ``cov @ rem`` residual awards, an ``(m, n)`` masked row-max for the
  residual hover times and partial awards, a full cheapest-insertion scan
  per call, and coverage rows read from the dense matrix.
* :func:`site_insertion_deltas` — the cheapest-insertion delta of every
  candidate site into a tour as one full ``(m, |tour|)`` scan, in place
  of the kernel's incrementally repaired cache.
* :class:`DenseRatioTable` — Algorithm 3's selection as the textbook
  round: every (site, k) pair scored and budget-checked, in place of the
  cached :class:`~repro.core.algorithm3.RatioTable` and its lazy check.
* :class:`LegacyPruneCache` — the baseline's prune loop as a full rescan
  of every removal ratio per round.
* :func:`dense_w2` — Algorithm 1's auxiliary-graph weights (Eq. 9) as the
  dense ``(m+1, m+1)`` matrix, built in place in the production
  operator's operation order; :func:`dense_auxgraph` plans Algorithm 1
  over it instead of the on-demand :class:`~repro.core.auxgraph.W2Costs`.
* :func:`overlap_matrix` / :func:`dense_overlap_conflicts` — the conflict
  lists read row by row off a dense ``(m, m)`` overlap matrix.
* :func:`rescan_greedy_fill` — the orienteering greedy constructor with a
  full scan of every tour edge against every node per insertion
  (:func:`full_insertion_deltas`), in place of the production
  cheapest-insertion cache over the live candidates.
* :func:`networkx_matching` / :func:`networkx_christofides` — the
  Christofides tour with networkx's blossom matching and Euler circuit,
  as the package built it before both moved in-house
  (:mod:`repro.tsp.matching`).  networkx is a test-only dependency.

:func:`dense_planners`, :func:`dense_selection`, :func:`legacy_prune`,
:func:`dense_auxgraph` and :func:`rescan_construction` install them into
the planner modules for the duration of a ``with`` block, so a test
plans the same instance both ways through the public planner functions
(:func:`kernel_and_dense` and :func:`plan_on` do exactly that).  All are
plain context managers (not fixtures), so hypothesis tests can use them.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Any, Iterator, List, Optional, Tuple
from unittest import mock

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import minimum_spanning_tree

from repro.core import algorithm1, algorithm2, algorithm3, benchmark_alg
from repro.core.algorithm2 import _DENOM_EPS
from repro.core.algorithm3 import _VOLUME_TOL, RatioTable
from repro.core.auxgraph import W2Costs
from repro.core.kernel import PlannerKernel, PruneCache
from repro.geometry.distance import cross_distances, pairwise_distances
from repro.orienteering import grasp, greedy, local_search
from repro.orienteering._vector import (conflict_neighbors, insertion_ratio,
                                        rcl_pick)
from repro.orienteering.problem import OrienteeringInstance
from repro.tsp.length import validate_tour

#: The ways a test can plan one Algorithm 2/3 cell (see :func:`plan_on`).
IMPLEMENTATIONS = ("kernel", "dense")


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


class DenseRatioTable(RatioTable):
    """Algorithm 3's per-round selection over every (site, k) pair."""

    def select(self, eligible_site, tau, p_partial, hover, length):
        kern = self.kern
        # Travel delta: zero for on-tour sites (Lemma 2 upgrade).
        deltas, _positions = kern.insertion_state()
        deltas = np.maximum(deltas, 0.0)
        deltas[kern.in_tour[1:]] = 0.0
        self.deltas = deltas
        new_energy = ((hover + tau) * self.eta_h
                      + (length + deltas)[:, None] * self.etat_m)
        feasible = (new_energy <= self.capacity + 1e-9) \
            & (p_partial > _VOLUME_TOL) & eligible_site[:, None]
        if not feasible.any():
            return None
        denom = np.maximum(tau * self.eta_h + deltas[:, None] * self.etat_m,
                           _DENOM_EPS)
        rho = np.where(feasible, p_partial / denom, -np.inf)
        j, k = np.unravel_index(int(np.argmax(rho)), rho.shape)
        return int(j), int(k)


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


def site_insertion_deltas(site_points: np.ndarray,
                          tour_points: np.ndarray) -> tuple:
    """Vectorised cheapest-insertion delta of every site into the tour.

    Returns ``(deltas, positions)`` where ``positions[j]`` is the tour index
    *before which* site ``j`` would be inserted.  This is the full O(m·k)
    scan the kernel's incremental cache is pinned against.
    """
    k = len(tour_points)
    if k == 1:
        d = 2.0 * cross_distances(site_points, tour_points)[:, 0]
        return d, np.ones(len(site_points), dtype=int)
    d_site_tour = cross_distances(site_points, tour_points)      # (m, k)
    nxt = np.roll(np.arange(k), -1)
    edge_len = np.linalg.norm(tour_points[nxt] - tour_points, axis=1)  # (k,)
    # delta for inserting between tour_i and tour_{i+1}
    cand = d_site_tour + d_site_tour[:, nxt] - edge_len[None, :]
    best = np.argmin(cand, axis=1)
    deltas = cand[np.arange(len(site_points)), best]
    positions = (best + 1) % k
    positions[positions == 0] = k
    return deltas, positions


def full_insertion_deltas(tour: np.ndarray, costs
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Every node's cheapest insertion into *tour* from two row gathers."""
    n = costs.n_nodes
    k = len(tour)
    if k == 0:
        return np.zeros(n), np.zeros(n, dtype=int)
    if k == 1:
        return 2.0 * costs.rows(tour)[0], np.ones(n, dtype=int)
    nxt = np.roll(tour, -1)
    edge = costs.pair(tour, nxt)
    cand = costs.rows(tour)
    cand += costs.rows(nxt)
    cand -= edge[:, None]
    best = np.argmin(cand, axis=0)
    deltas = cand[best, np.arange(n)]
    positions = (best + 1) % k
    positions[positions == 0] = k
    return deltas, positions


def rescan_greedy_fill(instance: OrienteeringInstance, tour: np.ndarray, *,
                       rng: Optional[np.random.Generator] = None,
                       tape: Optional[np.ndarray] = None,
                       rcl_size: int = 1,
                       blocked: Optional[np.ndarray] = None) -> np.ndarray:
    """Best-ratio greedy insertion with a full insertion scan per step."""
    n = instance.n_nodes
    costs = instance.costs
    budget = instance.budget
    awards = instance.awards
    neigh = conflict_neighbors(instance)

    if tape is None and rng is not None and rcl_size > 1:
        tape = rng.random(max(n - 1, 1))
    randomized = tape is not None and rcl_size > 1
    drawn = 0

    cur = np.asarray(tour, dtype=int).copy()
    cost = instance.tour_cost(cur)
    unavailable = np.zeros(n, dtype=bool)
    if blocked is not None:
        unavailable |= np.asarray(blocked, dtype=bool)
    unavailable[cur] = True
    unavailable[awards <= 0] = True
    if neigh is not None:
        for v in cur:
            nb = neigh[int(v)]
            if len(nb):
                unavailable[nb] = True

    while True:
        if unavailable.all():
            break
        deltas, positions = full_insertion_deltas(cur, costs)
        feasible = ~unavailable & (cost + deltas <= budget + 1e-9)
        if not feasible.any():
            break
        ratio = insertion_ratio(deltas, awards, feasible)
        if not randomized:
            v = int(np.argmax(ratio))
        else:
            v = rcl_pick(ratio, int(feasible.sum()),
                         float(tape[drawn]), rcl_size)
            drawn += 1
        pos = int(positions[v])
        cur = np.insert(cur, pos if pos != 0 else len(cur), v)
        cost += float(deltas[v])
        unavailable[v] = True
        if neigh is not None and len(neigh[v]):
            unavailable[neigh[v]] = True
    return cur


@contextmanager
def rescan_construction() -> Iterator[None]:
    """Build every orienteering construction with :func:`rescan_greedy_fill`."""
    with mock.patch.object(greedy, "greedy_fill", rescan_greedy_fill), \
            mock.patch.object(grasp, "greedy_fill", rescan_greedy_fill), \
            mock.patch.object(local_search, "greedy_fill",
                              rescan_greedy_fill):
        yield


@contextmanager
def dense_planners() -> Iterator[None]:
    """Run Algorithms 2/3 on :class:`DenseKernel` inside the block."""
    with mock.patch.object(algorithm2, "PlannerKernel", DenseKernel), \
            mock.patch.object(algorithm3, "PlannerKernel", DenseKernel):
        yield


@contextmanager
def dense_selection() -> Iterator[None]:
    """Run Algorithm 3 on :class:`DenseRatioTable` inside the block."""
    with mock.patch.object(algorithm3, "RatioTable", DenseRatioTable):
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

    ``"kernel"`` is the production path and ``"dense"`` the same
    planner on :class:`DenseKernel`.
    """
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
