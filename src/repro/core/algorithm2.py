"""Paper Algorithm 2 — DCM *with* hovering-coverage overlapping.

Greedy construction: starting from the depot-only tour, repeatedly add the
candidate hovering location with the largest data-per-energy ratio

    rho(s_j) = P'(s_j) / (t'(s_j) * eta_h + dTSP * eta_t)      (Eq. 13)

where ``P'`` counts only not-yet-collected sensors (Eq. 11), ``t'`` is the
max residual upload time among them (Eq. 12), and ``dTSP`` is the tour-length
increase of adding ``s_j``.  Stop when no candidate fits the battery.

This module is a thin *policy* layer: which candidate to take, under which
scoring rule.  All per-candidate state — residual awards/hover times with
dirty-set invalidation and the cheapest-insertion delta cache — lives in
:class:`repro.core.kernel.PlannerKernel`, which makes each greedy step
O(overlap) instead of O(m·n + m·|tour|).

Incremental-TSP modes
---------------------
* ``tsp_mode="insertion"`` (default) — ``dTSP`` is the cheapest-insertion
  delta into the current tour, served from the kernel's incremental cache;
  the tour is maintained incrementally.
* ``tsp_mode="christofides"`` — recompute a Christofides tour for
  ``S ∪ {s_j}`` per candidate, exactly as the paper's pseudo-code states.
  O(|S|^3) per candidate; practical only on small instances.  The ablation
  bench compares the two.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.hovering import (HoveringSites, build_hovering_sites,
                                 check_prebuilt_sites)
from repro.core.kernel import PlannerKernel
from repro.core.tour import CollectionTour
from repro.energy.model import EnergyModel
from repro.geometry.distance import pairwise_distances
from repro.network.sensor_network import SensorNetwork
from repro.obs.tracer import span
from repro.radio.link import RadioModel
from repro.tsp.christofides import christofides_tour
from repro.tsp.improve import two_opt
from repro.tsp.length import tour_length_matrix
from repro.utils.errors import InvalidParameterError
from repro.utils.validation import check_integer

#: Denominator floor preventing division by zero when a candidate adds
#: neither hover time nor tour length (e.g. a site colocated with the depot).
_DENOM_EPS = 1e-12

#: Candidate-scoring policies (``scoring=`` parameter).  ``"ratio"`` is the
#: paper's Eq. 13; the others are ablation baselines quantifying how much
#: the energy-normalised ratio actually buys:
#:
#: * ``"award"``      — pick the largest residual award, ignore cost;
#: * ``"proximity"``  — pick the cheapest-to-insert candidate with any
#:   residual award (a nearest-neighbour construction);
#: * ``"hover_ratio"`` — Eq. 13 without the travel term (hover energy only).
SCORING_POLICIES = ("ratio", "award", "proximity", "hover_ratio")


def _score(policy: str, p_res, t_res, deltas, eta_h, etat_m, feasible):
    """Candidate scores under *policy*; -inf where infeasible."""
    if policy == "ratio":
        denom = np.maximum(t_res * eta_h + np.maximum(deltas, 0.0) * etat_m,
                           _DENOM_EPS)
        raw = p_res / denom
    elif policy == "award":
        raw = p_res
    elif policy == "proximity":
        raw = -np.maximum(deltas, 0.0)
    elif policy == "hover_ratio":
        raw = p_res / np.maximum(t_res * eta_h, _DENOM_EPS)
    else:
        raise InvalidParameterError(
            f"scoring must be one of {SCORING_POLICIES}, got {policy!r}")
    return np.where(feasible, raw, -np.inf)


def plan_algorithm2(network: SensorNetwork, energy: EnergyModel,
                    radio: RadioModel, delta: float, *,
                    tsp_mode: str = "insertion",
                    polish: bool = True,
                    scoring: str = "ratio",
                    sites: Optional[HoveringSites] = None,
                    max_iterations: Optional[int] = None) -> CollectionTour:
    """Plan a full-collection tour with the greedy max-ratio heuristic.

    Parameters
    ----------
    network, energy, radio, delta:
        Problem inputs; ``delta`` is the grid edge length.
    tsp_mode:
        ``"insertion"`` (fast, default) or ``"christofides"`` (paper-literal).
    polish:
        After construction, 2-opt the tour and retry insertions with the
        freed budget (never reduces collected volume).
    scoring:
        Candidate-scoring policy (see :data:`SCORING_POLICIES`); the
        default ``"ratio"`` is the paper's Eq. 13.
    sites:
        Pre-built hovering sites (else built from the inputs).
    max_iterations:
        Safety bound on greedy iterations, an integer >= 0 (default:
        number of candidates + 1).
    """
    # repro: hot-path  (the greedy loop must stay O(overlap) per step)
    if tsp_mode not in ("insertion", "christofides"):
        raise InvalidParameterError(
            f"tsp_mode must be 'insertion' or 'christofides', got {tsp_mode!r}")
    if scoring not in SCORING_POLICIES:
        raise InvalidParameterError(
            f"scoring must be one of {SCORING_POLICIES}, got {scoring!r}")
    if max_iterations is not None:
        max_iterations = check_integer(max_iterations, "max_iterations",
                                       minimum=0)
    if sites is None:
        sites = build_hovering_sites(network, radio, delta)
    else:
        check_prebuilt_sites(sites, network, radio, delta)

    kern = PlannerKernel(sites, energy, radio)
    pts_all = kern.points_all
    volumes = network.volumes
    eta_h = energy.hover_power
    etat_m = energy.travel_cost_per_meter
    capacity = energy.capacity

    m = sites.n_sites
    sojourn_of: Dict[int, float] = {0: 0.0}
    hover_total = 0.0
    tour_len = 0.0
    iterations = 0
    limit = max_iterations if max_iterations is not None else m + 1

    dist_all = None
    if tsp_mode == "christofides":
        # repro: allow[hot-path-purity] -- paper-literal mode, small m only
        dist_all = pairwise_distances(pts_all)

    while iterations < limit:
        # One greedy round: rescore, pick the max-ratio candidate, drain.
        with span("alg2.round"):
            iterations += 1
            p_res, t_res = kern.residual_scores()               # Eqs. 11-12

            eligible = (p_res > 0) & ~kern.in_tour[1:]
            if not eligible.any():
                break

            if tsp_mode == "insertion":
                deltas, _positions = kern.insertion_state()
            else:
                deltas = np.full(m, np.inf)
                cur_nodes = np.array(kern.tour, dtype=int)
                for j in np.flatnonzero(eligible):
                    # repro: allow[hot-path-purity] -- tour-node list for the christofides TSP mode, O(|tour|) not O(m*n)
                    cand_nodes = np.append(cur_nodes, j + 1)
                    cand_tour = christofides_tour(dist_all, start=0,
                                                  nodes=cand_nodes)
                    deltas[j] = tour_length_matrix(cand_tour,
                                                   dist_all) - tour_len

            new_hover = hover_total + t_res
            new_energy = (new_hover * eta_h
                          + (tour_len + np.maximum(deltas, 0.0)) * etat_m)
            feasible = eligible & (new_energy <= capacity + 1e-9)
            if not feasible.any():
                break

            rho = _score(scoring, p_res, t_res, deltas, eta_h, etat_m,
                         feasible)
            j = int(np.argmax(rho))

            node = j + 1
            if tsp_mode == "insertion":
                kern.insert(j)
                tour_len += float(deltas[j])
            else:
                # repro: allow[hot-path-purity] -- tour-node list for the christofides TSP mode, O(|tour|) per accepted node
                cur_nodes = np.append(np.array(kern.tour, dtype=int), node)
                new_tour = christofides_tour(dist_all, start=0,
                                             nodes=cur_nodes)
                kern.set_tour([int(v) for v in new_tour])
                tour_len = tour_length_matrix(new_tour, dist_all)
            sojourn_of[node] = float(t_res[j])
            hover_total += float(t_res[j])
            kern.drain_full(j)

    if polish and len(kern.tour) >= 4:
        with span("alg2.polish"):
            tour_len, hover_total = _polish_and_refill(
                kern, sojourn_of, hover_total, energy)

    sojourns = np.array([sojourn_of[v] for v in kern.tour])
    collected = np.where(kern.covered, volumes, 0.0)
    meta = {
        "n_candidates": m,
        "n_visited": len(kern.tour) - 1,
        "iterations": iterations,
        "tsp_mode": tsp_mode,
        "scoring": scoring,
        "polished": bool(polish),
        "delta": float(sites.delta),
        "perf": kern.perf(),
    }
    return CollectionTour(
        points=pts_all[np.array(kern.tour, dtype=int)],
        sojourns=sojourns, collected=collected,
        network=network, energy=energy, method="algorithm2",
        meta=meta)


def _polish_and_refill(kern: PlannerKernel, sojourn_of: Dict[int, float],
                       hover_total: float, energy: EnergyModel) -> tuple:
    """2-opt the tour, then greedily insert more sites with the freed budget.

    Mutates the kernel (tour, residuals) and ``sojourn_of`` in place;
    returns the updated ``(tour_len, hover_total)``.  The wholesale reorder
    flushes the kernel's insertion cache — the one full O(m·|tour|) rescan
    a polished run pays.
    """
    # repro: hot-path  (post-polish refill re-enters the greedy loop)
    tour_arr = np.array(kern.tour, dtype=int)
    tour_pts = kern.points_all[tour_arr]
    # repro: allow[hot-path-purity] -- (|tour|, |tour|) only, not (m, n)
    local_dist = pairwise_distances(tour_pts)
    improved = two_opt(np.arange(len(tour_arr)), local_dist)
    start = int(np.flatnonzero(tour_arr[improved] == 0)[0])
    order = np.roll(improved, -start)
    kern.set_tour([int(tour_arr[i]) for i in order])
    tour_len = tour_length_matrix(np.arange(len(order)),
                                  local_dist[np.ix_(order, order)])

    eta_h = energy.hover_power
    etat_m = energy.travel_cost_per_meter
    capacity = energy.capacity
    while True:
        p_res, t_res = kern.residual_scores()
        eligible = (p_res > 0) & ~kern.in_tour[1:]
        if not eligible.any():
            break
        deltas, _positions = kern.insertion_state()
        new_energy = ((hover_total + t_res) * eta_h
                      + (tour_len + np.maximum(deltas, 0.0)) * etat_m)
        feasible = eligible & (new_energy <= capacity + 1e-9)
        if not feasible.any():
            break
        denom = np.maximum(t_res * eta_h + np.maximum(deltas, 0.0) * etat_m,
                           _DENOM_EPS)
        rho = np.where(feasible, p_res / denom, -np.inf)
        j = int(np.argmax(rho))
        node = j + 1
        kern.insert(j)
        tour_len += float(deltas[j])
        sojourn_of[node] = float(t_res[j])
        hover_total += float(t_res[j])
        kern.drain_full(j)
    return tour_len, hover_total


__all__ = ["plan_algorithm2", "SCORING_POLICIES"]
