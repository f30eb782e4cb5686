"""Reference formulations the production planners are pinned against.

* :class:`DenseKernel` — :class:`~repro.core.kernel.PlannerKernel` with
  every incremental cache replaced by the textbook full recompute: the
  ``cov @ rem`` residual awards, an ``(m, n)`` masked row-max for the
  residual hover times and partial awards, a full
  :func:`site_insertion_deltas` scan per call (no production insertion
  code), and coverage rows read from the dense matrix.
* :func:`textbook_algorithm2` — Algorithm 2's own greedy loop, as the
  package ran it before Algorithm 2 became Algorithm 3 at K = 1: Eqs.
  11–13 recomputed densely every round, a full drain of every covered
  sensor, then the 2-opt polish and refill.
* :func:`site_insertion_deltas` — the cheapest-insertion delta of every
  candidate site into a tour as one full ``(m, |tour|)`` scan, in place
  of the kernel's incrementally repaired cache.
* :class:`DenseRatioTable` — Algorithm 3's selection as the textbook
  round: every (site, k) pair scored and budget-checked, in place of the
  cached :class:`~repro.core.algorithm3.RatioTable` and its lazy check.
* :func:`stepwise_chains` — Algorithm 3 with every round of a tied
  one-sensor upgrade chain run through the per-round loop, in place of
  the one-pass replay (:meth:`~repro.core.algorithm3.RatioTable.chain`).
* :class:`LegacyPruneCache` — the baseline's prune loop as a full rescan
  of every removal ratio per round.
* :func:`fresh_sum_benchmark` — the baseline with a fresh sum of the tour
  energy after every removal, in place of the running energy and its
  rounding margin.
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
* :func:`kdtree_sites` — the hovering sites from a KD-tree: a
  nearest-sensor query over every grid centre
  (:func:`candidate_centers`), the dense coverage matrix from a ball
  query (centres whose ball is empty dropped), ``cov @ volumes``
  awards, the dense masked max for the hover times and the CSR read off
  the matrix (:func:`csr_from_matrix`), in place of the per-sensor
  window build;
  :func:`assert_sites_equal` compares the two bitwise.
* :func:`stepwise_simulate` — the mission simulator event by event: one
  coverage query, one ledger debit (scalar validation) and one NumPy
  upload update per hover, in place of the one-pass replay;
  :func:`assert_traces_equal` compares two traces exactly.
* :func:`networkx_matching` / :func:`networkx_christofides` — the
  Christofides tour with networkx's blossom matching and Euler circuit,
  as the package built it before both moved in-house
  (:mod:`repro.tsp.matching`).  networkx is a test-only dependency.

:func:`dense_planners`, :func:`dense_selection`, :func:`stepwise_chains`,
:func:`legacy_prune`, :func:`dense_auxgraph` and
:func:`rescan_construction` install them into the planner modules for
the duration of a ``with`` block (the first two run round by round
too), so a test
plans the same instance both ways through the public planner functions
(:func:`kernel_and_dense` and :func:`plan_on` do exactly that).  All are
plain context managers (not fixtures), so hypothesis tests can use them.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from types import SimpleNamespace
from typing import Any, Iterator, List, Optional, Tuple
from unittest import mock

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial import cKDTree

from repro.core import algorithm1, algorithm3, benchmark_alg
from repro.core.algorithm3 import _DENOM_EPS, RatioTable
from repro.core.auxgraph import W2Costs
from repro.core.hovering import build_hovering_sites
from repro.core.kernel import _VOLUME_TOL, PlannerKernel, PruneCache
from repro.core.tour import CollectionTour
from repro.energy.ledger import EnergyLedger
from repro.geometry.coverage import (CoverageIndex, SparseCoverage,
                                     coverage_matrix)
from repro.geometry.distance import cross_distances, pairwise_distances
from repro.geometry.grid import GridPartition
from repro.orienteering import greedy, local_search
from repro.orienteering._vector import (conflict_neighbors, insertion_ratio,
                                        rcl_pick)
from repro.obs.tracer import span
from repro.orienteering.problem import OrienteeringInstance
from repro.radio.ofdma import OFDMAScheduler
from repro.sim.events import FlightLeg, HoverEvent
from repro.sim.trace import MissionTrace
from repro.tsp.improve import two_opt
from repro.tsp.length import tour_length_matrix, validate_tour
from repro.utils.validation import check_points_array, check_positive

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

    def __init__(self, sites, energy, radio) -> None:
        super().__init__(sites, energy, radio)
        self.csr = _DenseRows(sites.cov_matrix)

    def residual_scores(self) -> Tuple[np.ndarray, np.ndarray]:
        """Eqs. 11–12 for every candidate: ``(P', t')`` on the residuals."""
        self.counters["sites_rescored"] += self.m
        return (self.sites.residual_awards(self.rem),
                self.sites.residual_hover_times(self.rem))

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
        self.counters["deltas_recomputed"] += self.m
        return site_insertion_deltas(self.sites.points,
                                     self.points_all[self.tour])

    def insert(self, site: int) -> int:
        _deltas, positions = self.insertion_state()
        pos = int(positions[site])
        self.tour.insert(pos, site + 1)
        self.in_tour[site + 1] = True
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


def textbook_algorithm2(network, energy, radio, delta: float, *,
                        polish: bool = True, sites=None) -> CollectionTour:
    """Algorithm 2 round by round: Eqs. 11–13, full drain, polish, refill.

    Every round rescores every candidate densely
    (:meth:`DenseKernel.residual_scores`, :func:`site_insertion_deltas`),
    takes the first max-ratio candidate within budget (Eq. 13), hovers
    its full residual upload time ``t'`` and drains every sensor it
    covers to zero.  With *polish*, the finished tour of 4 or more nodes
    is 2-opted and the same loop resumes with the freed budget.
    ``meta["iterations"]`` counts the construction rounds only.
    """
    if sites is None:
        sites = build_hovering_sites(network, radio, delta)
    kern = DenseKernel(sites, energy, radio)
    eta_h = energy.hover_power
    etat_m = energy.travel_cost_per_meter
    covered = np.zeros(network.n_nodes, dtype=bool)
    sojourn_of = {0: 0.0}
    state = {"hover": 0.0, "len": 0.0}

    def greedy_round() -> bool:
        """One selection and its drain; False when nothing fits."""
        p_res, t_res = kern.residual_scores()
        eligible = (p_res > 0) & ~kern.in_tour[1:]
        if not eligible.any():
            return False
        deltas, _positions = kern.insertion_state()
        new_energy = ((state["hover"] + t_res) * eta_h
                      + (state["len"] + np.maximum(deltas, 0.0)) * etat_m)
        feasible = eligible & (new_energy <= energy.capacity + 1e-9)
        if not feasible.any():
            return False
        rho = p_res / np.maximum(
            t_res * eta_h + np.maximum(deltas, 0.0) * etat_m, _DENOM_EPS)
        j = int(np.argmax(np.where(feasible, rho, -np.inf)))
        kern.insert(j)
        state["len"] += float(deltas[j])
        sojourn_of[j + 1] = float(t_res[j])
        state["hover"] += float(t_res[j])
        drained = sites.cov_matrix[j]
        kern.rem[drained] = 0.0
        covered[drained] = True
        return True

    iterations = 1
    while greedy_round():
        iterations += 1
    if polish and len(kern.tour) >= 4:
        tour_arr = np.array(kern.tour)
        local_dist = pairwise_distances(kern.points_all[tour_arr])
        improved = two_opt(np.arange(len(tour_arr)), local_dist)
        order = np.roll(improved,
                        -int(np.flatnonzero(tour_arr[improved] == 0)[0]))
        kern.set_tour([int(tour_arr[i]) for i in order])
        state["len"] = tour_length_matrix(np.arange(len(order)),
                                          local_dist[np.ix_(order, order)])
        while greedy_round():
            pass
    return CollectionTour(
        points=kern.points_all[np.array(kern.tour)],
        sojourns=np.array([sojourn_of[v] for v in kern.tour]),
        collected=np.where(covered, network.volumes, 0.0),
        network=network, energy=energy, method="algorithm2",
        meta={"n_visited": len(kern.tour) - 1, "iterations": iterations,
              "perf": kern.perf()})


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


def fresh_sum_benchmark(network, energy, radio,
                        tour=None) -> CollectionTour:
    """:func:`~repro.core.benchmark_alg.plan_benchmark` with the tour
    energy summed afresh after every removal."""
    n = network.n_nodes
    initial = None if tour is None else benchmark_alg._check_tour(tour, n)
    pts_all = benchmark_alg._stops(network)
    volumes = network.volumes
    hover_times = volumes / radio.bandwidth
    eta_h = energy.hover_power
    etat_m = energy.travel_cost_per_meter
    capacity = energy.capacity
    dist = pairwise_distances(pts_all)
    if initial is None:
        initial = benchmark_alg.baseline_tour(network).tolist()

    def tour_energy(order: List[int]) -> float:
        travel = tour_length_matrix(np.array(order, dtype=int), dist)
        hover = sum(hover_times[v - 1] for v in order if v != 0)
        return hover * eta_h + travel * etat_m

    removals = 0
    current = tour_energy(initial)
    cache = PruneCache(dist, volumes, hover_times, eta_h, etat_m)
    cache.set_tour(initial)
    while current > capacity + 1e-9 and len(cache.tour) > 1:
        best_i = cache.best()
        if best_i < 0:
            best_i = min(range(1, len(cache.tour)),
                         key=lambda i: volumes[cache.tour[i] - 1])
        cache.remove(best_i)
        removals += 1
        current = tour_energy(cache.tour)

    order = np.array(cache.tour, dtype=int)
    sojourns = np.array([0.0 if v == 0 else hover_times[v - 1] for v in order])
    collected = np.zeros(n)
    kept = order[order > 0] - 1
    collected[kept] = volumes[kept]
    return CollectionTour(
        points=pts_all[order], sojourns=sojourns, collected=collected,
        network=network, energy=energy, method="benchmark",
        meta={"n_visited": int(len(order) - 1), "removals": removals,
              "initial_nodes": n,
              "perf": {"engine": "kernel",
                       "ratios_rescored": cache.rescored}})


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
def dead_edge_spy(module) -> Iterator[dict]:
    """Count what each ``repair_insertion_cache`` call in *module* does
    with the candidates whose best edge it destroyed.

    Yields ``{"settled": ..., "tied": ...}``: the destroyed-edge
    candidates a new edge beat strictly (kept out of the rescan), and
    those whose better new edge ties their old delta exactly (which the
    repair returns for a rescan).
    """
    counts = {"settled": 0, "tied": 0}
    repair = module.repair_insertion_cache

    def spy(deltas, edges, e, via_new):
        dead = edges == e
        tied = dead & (np.minimum(via_new[0], via_new[1]) == deltas)
        counts["tied"] += int(np.count_nonzero(tied))
        rescan = repair(deltas, edges, e, via_new)
        counts["settled"] += int(np.count_nonzero(dead)) - len(rescan)
        return rescan

    with mock.patch.object(module, "repair_insertion_cache", spy):
        yield counts


@contextmanager
def rescan_construction() -> Iterator[None]:
    """Build every orienteering construction with :func:`rescan_greedy_fill`."""
    with mock.patch.object(greedy, "greedy_fill", rescan_greedy_fill), \
            mock.patch.object(local_search, "greedy_fill",
                              rescan_greedy_fill):
        yield


@contextmanager
def stepwise_chains() -> Iterator[None]:
    """Run every Algorithm 3 round through the per-round loop.

    No site qualifies for the chain pass: :meth:`PlannerKernel.lone_sensor`
    answers -1, so each tied one-sensor round scores, selects and drains
    on its own, as before the pass existed.
    """
    with mock.patch.object(PlannerKernel, "lone_sensor",
                           lambda self, site: -1):
        yield


@contextmanager
def dense_planners() -> Iterator[None]:
    """Run Algorithms 2/3 on :class:`DenseKernel`, round by round.

    Algorithm 2 runs Algorithm 3's loop, so one patch covers both.
    """
    with mock.patch.object(algorithm3, "PlannerKernel", DenseKernel), \
            stepwise_chains():
        yield


@contextmanager
def dense_selection() -> Iterator[None]:
    """Run Algorithm 3 on :class:`DenseRatioTable`, round by round."""
    with mock.patch.object(algorithm3, "RatioTable", DenseRatioTable), \
            stepwise_chains():
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


def candidate_centers(grid: GridPartition, sensor_points,
                      radius: float) -> np.ndarray:
    """Centres of *grid*'s squares within *radius* of some sensor.

    The pruning as the KD-tree build ran it: one nearest-sensor query
    for every centre of the grid, kept where ``dist <= radius``.
    """
    check_positive(radius, "radius")
    sensors = check_points_array(sensor_points, "sensor_points")
    centers = grid.centers()
    if len(sensors) == 0:
        return centers[:0]
    dist, _ = cKDTree(sensors).query(centers, k=1)
    return centers[dist <= radius]


def csr_from_matrix(cov: np.ndarray) -> SparseCoverage:
    """Both CSR directions read off a dense boolean ``(m, n)`` matrix."""
    cov = np.asarray(cov, dtype=bool)
    m, n = cov.shape
    rows, cols = np.nonzero(cov)          # row-major ⇒ cols sorted per row
    site_indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=m), out=site_indptr[1:])
    tcols, trows = np.nonzero(cov.T)      # transpose walk, same trick
    sensor_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tcols, minlength=n), out=sensor_indptr[1:])
    for arr in (site_indptr, cols, sensor_indptr, trows):
        arr.flags.writeable = False
    return SparseCoverage(n_sites=m, n_sensors=n,
                          site_indptr=site_indptr, site_indices=cols,
                          sensor_indptr=sensor_indptr, sensor_indices=trows)


def kdtree_sites(network, radio, delta: float, *, prune: bool = True,
                 grid: Optional[GridPartition] = None) -> SimpleNamespace:
    """The hovering sites as a KD-tree build makes them.

    ``points``, ``cov_matrix``, ``awards``, ``hover_times`` and ``csr``
    of :func:`~repro.core.hovering.build_hovering_sites` without the
    window build: every grid centre queried, coverage from a ball query,
    the hover times as the dense masked max.  Pruning keeps the centres
    of :func:`candidate_centers` whose ball-query set is not empty (the
    nearest-sensor test alone can keep one that covers nothing).
    """
    check_positive(delta, "delta")
    if grid is None:
        grid = GridPartition(network.region, delta)
    r0 = radio.coverage_radius
    if prune:
        centers = candidate_centers(grid, network.positions, r0)
        cov = coverage_matrix(centers, network.positions, r0)
        covering = cov.any(axis=1)
        centers, cov = centers[covering], cov[covering]
    else:
        centers = grid.centers()
        cov = coverage_matrix(centers, network.positions, r0)
    upload_times = network.volumes / radio.bandwidth
    masked = np.where(cov, upload_times[None, :], 0.0)
    hover_times = (masked.max(axis=1) if masked.shape[1]
                   else np.zeros(len(centers)))
    return SimpleNamespace(points=centers, cov_matrix=cov,
                           awards=cov @ network.volumes,
                           hover_times=hover_times,
                           csr=csr_from_matrix(cov))


def assert_sites_equal(sites, oracle) -> None:
    """*sites* bitwise equal to :func:`kdtree_sites`' *oracle*.

    Points as bytes; both CSR directions with their dtypes and read-only
    flags; hover times; and the derived ``cov_matrix`` and ``awards``.
    """
    assert sites.points.dtype == oracle.points.dtype
    assert sites.points.shape == oracle.points.shape
    assert sites.points.tobytes() == oracle.points.tobytes()
    for name in ("site_indptr", "site_indices", "sensor_indptr",
                 "sensor_indices"):
        got, want = getattr(sites.csr, name), getattr(oracle.csr, name)
        assert got.dtype == want.dtype, name
        assert not got.flags.writeable, name
        np.testing.assert_array_equal(got, want, err_msg=name)
    assert (sites.csr.n_sites, sites.csr.n_sensors) \
        == (oracle.csr.n_sites, oracle.csr.n_sensors)
    assert sites.hover_times.tobytes() == oracle.hover_times.tobytes()
    np.testing.assert_array_equal(sites.cov_matrix, oracle.cov_matrix)
    assert sites.awards.tobytes() == oracle.awards.tobytes()


def stepwise_simulate(tour, radio, *, ofdma_channels: int = 1024,
                      strict_energy: bool = True,
                      strict_channels: bool = False,
                      rate_model=None) -> MissionTrace:
    """:func:`~repro.sim.simulator.simulate_mission` event by event.

    Each hover queries its own coverage, debits the ledger through
    ``debit_hover`` and updates the NumPy residual array sensor by
    sensor; each leg measures itself and debits ``debit_travel``.
    """
    net = tour.network
    index = CoverageIndex(net.positions, radio.coverage_radius)
    scheduler = OFDMAScheduler(ofdma_channels, strict=strict_channels)
    ledger = EnergyLedger(tour.energy, strict=strict_energy)

    rem = net.volumes.astype(float).copy()
    collected = np.zeros(net.n_nodes)
    events: list = []
    clock = 0.0
    points = tour.points

    with span("sim.mission", method=tour.method, n_stops=len(points)):
        for i in range(len(points)):
            pos = points[i]
            duration = float(tour.sojourns[i])
            if duration > 0:
                with span("sim.hover"):
                    entry = ledger.debit_hover(duration, note=f"hover@{i}")
                    covered = index.covered_by_single(pos)
                    assignment = scheduler.assign(covered)
                    uploads = {}
                    for v, _ch in assignment.device_to_channel.items():
                        if rate_model is not None:
                            ground_d = float(
                                np.hypot(*(net.positions[v] - pos)))
                            rate = float(
                                rate_model.rate_at(np.asarray([ground_d]))[0])
                        else:
                            rate = radio.bandwidth
                        amount = min(rem[v], rate * duration)
                        if amount > 0:
                            uploads[v] = amount
                            rem[v] -= amount
                            collected[v] += amount
                    events.append(HoverEvent(
                        start_time=clock, end_time=clock + duration,
                        position=(float(pos[0]), float(pos[1])),
                        energy=entry.energy, uploads=uploads,
                        channels=dict(assignment.device_to_channel)))
                    clock += duration
            nxt = points[(i + 1) % len(points)]
            leg = float(np.hypot(*(nxt - pos)))
            if leg > 0:
                with span("sim.leg"):
                    entry = ledger.debit_travel(
                        leg, note=f"leg{i}->{(i + 1) % len(points)}")
                    events.append(FlightLeg(
                        start_time=clock, end_time=clock + entry.duration,
                        origin=(float(pos[0]), float(pos[1])),
                        destination=(float(nxt[0]), float(nxt[1])),
                        distance=leg, energy=entry.energy))
                    clock += entry.duration

    return MissionTrace(events=events, collected=collected, ledger=ledger,
                        ofdma_max_concurrency=scheduler.max_concurrency)


def _typed(value: Any) -> Any:
    """*value* with the exact type of every number inside it, so that
    ``==`` on two of them also compares ``float`` against NumPy scalars."""
    if isinstance(value, dict):
        return [(_typed(k), _typed(v)) for k, v in value.items()]
    if isinstance(value, (tuple, list)):
        return [_typed(v) for v in value]
    if isinstance(value, (float, int, np.generic)):
        return (type(value), float(value).hex() if isinstance(
            value, (float, np.floating)) else int(value))
    return value


def assert_traces_equal(got: MissionTrace, want: MissionTrace) -> None:
    """Two mission traces equal exactly: every event field (value and
    type, uploads in order), collected bytes, ledger entries and spent,
    and the OFDMA concurrency."""
    assert len(got.events) == len(want.events)
    for a, b in zip(got.events, want.events):
        assert type(a) is type(b)
        assert _typed(vars(a)) == _typed(vars(b)), (a, b)
    assert got.collected.dtype == want.collected.dtype
    assert got.collected.tobytes() == want.collected.tobytes()
    assert _typed([vars(e) for e in got.ledger.entries]) \
        == _typed([vars(e) for e in want.ledger.entries])
    assert _typed(got.ledger.spent) == _typed(want.ledger.spent)
    assert got.ofdma_max_concurrency == want.ofdma_max_concurrency


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
