"""Paper Algorithm 1 — DCM *without* hovering-coverage overlapping.

Reduces the data-collection maximisation problem to orienteering on the
auxiliary graph ``G_s`` (Eqs. 6–9): node awards are coverable data volumes,
edge costs are the energy weights ``w2``, and the budget is the UAV battery
capacity — a budget-feasible orienteering tour is exactly an
energy-feasible collection tour (Theorem 2).

Overlap handling
----------------
The paper *assumes* no two chosen hovering locations overlap.  On a real
δ-grid with ``delta <= R0`` adjacent squares always overlap, so this
implementation offers two modes:

* ``overlap="conflict"`` (default) — enforce the assumption: sites with
  intersecting coverage sets form pairwise conflict groups, so the solver
  never picks two overlapping sites and the award sum equals the true
  collected volume;
* ``overlap="ignore"`` — run the raw reduction exactly as written in the
  paper (awards may double-count); the returned
  :class:`~repro.core.tour.CollectionTour` still reports the *true* union
  volume, so the objective value is honest either way.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.auxgraph import (AuxiliaryGraph, build_auxiliary_graph,
                                 overlap_conflicts)
from repro.core.hovering import HoveringSites, build_hovering_sites
from repro.core.reduce import (ReducedSites, attach_reduction_meta,
                               reduce_sites, resolve_reduction)
from repro.core.tour import CollectionTour
from repro.energy.model import EnergyModel
from repro.network.sensor_network import SensorNetwork
from repro.obs.tracer import span
from repro.orienteering.grasp import warm_tour_from_nodes
from repro.orienteering.problem import OrienteeringInstance
from repro.orienteering.solver import solve_orienteering
from repro.radio.link import RadioModel
from repro.utils.errors import InvalidParameterError
from repro.utils.rng import SeedLike


def plan_algorithm1(network: SensorNetwork, energy: EnergyModel,
                    radio: RadioModel, delta: float, *,
                    overlap: str = "conflict",
                    solver: str = "grasp",
                    n_restarts: int = 8,
                    seed: SeedLike = None,
                    sites: Optional[HoveringSites] = None,
                    site_reduction=None,
                    graph: Optional[AuxiliaryGraph] = None,
                    conflict_neighbors: Optional[List[np.ndarray]] = None,
                    warm_nodes=None
                    ) -> CollectionTour:
    """Plan a full-collection tour via the orienteering reduction.

    Parameters
    ----------
    network, energy, radio:
        Problem inputs (see the respective substrate modules).
    delta:
        Grid square edge length (metres); the paper requires
        ``delta <= R0`` here so every sensor is coverable from some centre.
    overlap:
        ``"conflict"`` or ``"ignore"`` — see the module docstring.
    solver:
        Orienteering backend (``"auto"``/``"exact"``/``"grasp"``/``"greedy"``).
    n_restarts, seed:
        GRASP parameters.
    sites, graph, conflict_neighbors:
        Pre-built reduction inputs (else built from the problem inputs).
        Sweep campaigns memoize these per (instance, δ) via
        :class:`repro.experiments.artifacts.ArtifactCache`; a supplied
        *graph* must have been weighted with this call's energy rates
        (the capacity may differ — it only enters as the budget).
    site_reduction:
        Candidate-site reduction pre-pass (``None``/``"off"``, ``"safe"``,
        ``"aggressive"``, or a :class:`~repro.core.reduce.SiteReduction` /
        its dict form), applied before the auxiliary graph is built.
        GRASP restarts draw their RNG tape against the *original* site
        count and pick from index-sorted candidate lists, so the
        ``safe`` level (a pure renumbering of survivors) leaves every
        restart's choices — and hence the tour — invariant; only the
        ``aggressive`` stages, which change the candidate geometry
        itself, can change a solution.  When a pre-built
        *graph*/*conflict_neighbors* is supplied it must have been built
        over the same reduced sites.
    warm_nodes:
        Optional warm-start hint: candidate node indices in this call's
        (reduced) node index space — e.g. the finer grid's nearest sites
        to a coarser δ-grid's tour stops (the δ-continuation mode of
        :func:`repro.experiments.runner.run_sweep`).  A deterministic
        greedy construction restricted to these nodes
        (:func:`~repro.orienteering.grasp.warm_tour_from_nodes`) is
        polished *after* the GRASP restarts and kept only on strict
        improvement, so a non-improving warm start leaves the tour
        bitwise unchanged.

    Returns
    -------
    CollectionTour
        Energy-feasible by construction; validated in the test suite.
    """
    if overlap not in ("conflict", "ignore"):
        raise InvalidParameterError(
            f"overlap must be 'conflict' or 'ignore', got {overlap!r}")
    r0 = radio.coverage_radius
    if delta > r0:
        raise InvalidParameterError(
            f"Algorithm 1 requires delta <= R0 ({r0:.1f} m), got {delta}")
    if graph is not None:
        if (graph.energy.hover_power != energy.hover_power
                or graph.energy.travel_cost_per_meter
                != energy.travel_cost_per_meter):
            raise InvalidParameterError(
                "pre-built graph was weighted with different energy rates")
        if sites is not None and graph.sites is not sites:
            raise InvalidParameterError(
                "pre-built graph does not match the supplied sites")

    reduction = resolve_reduction(site_reduction)
    with span("alg1.reduction"):
        if graph is not None and sites is None:
            sites = graph.sites
        if sites is None:
            sites = build_hovering_sites(network, radio, delta)
        if reduction.enabled and not isinstance(sites, ReducedSites):
            if graph is not None or conflict_neighbors is not None:
                raise InvalidParameterError(
                    "site_reduction with pre-built graph/conflict lists: "
                    "build them over the reduced sites (the ArtifactCache "
                    "does this) or drop the prebuilt artifacts")
            sites = reduce_sites(sites, reduction, energy=energy)
        if graph is None:
            graph = build_auxiliary_graph(sites, energy)

        neighbors = None
        if overlap == "conflict" and sites.n_sites > 0:
            neighbors = (conflict_neighbors if conflict_neighbors is not None
                         else overlap_conflicts(sites))

    # The graph's on-demand w2 (cached across a sweep's cells) is the
    # instance's cost operator: no (m+1, m+1) matrix is ever built.
    instance = OrienteeringInstance(costs=graph.w2, awards=graph.awards,
                                    budget=energy.capacity, depot=0,
                                    conflict_neighbor_lists=neighbors)
    # Reduction-aware seeding: size the GRASP RNG tape by the *original*
    # site count so restarts replay identically on reduced instances.
    tape_nodes = (sites.n_original + 1 if isinstance(sites, ReducedSites)
                  else None)
    warm_tour = (warm_tour_from_nodes(instance, warm_nodes)
                 if warm_nodes is not None else None)
    solution = solve_orienteering(instance, method=solver,
                                  n_restarts=n_restarts, seed=seed,
                                  tape_nodes=tape_nodes, warm_tour=warm_tour)

    visited_sites = solution.tour[solution.tour > 0] - 1  # back to site ids
    points = graph.points[solution.tour]
    sojourns = graph.hover_times[solution.tour]

    collected = np.zeros(network.n_nodes)
    if len(visited_sites):
        union = sites.cov_matrix[visited_sites].any(axis=0)
        collected[union] = network.volumes[union]

    meta = {
        "n_candidates": sites.n_sites,
        "n_visited": int(len(visited_sites)),
        "orienteering_method": solution.method,
        "orienteering_award": solution.award,
        "orienteering_cost": solution.cost,
        "overlap_mode": overlap,
        "delta": float(delta),
        "perf": {"engine": "scalar",
                 **({"grasp": solution.stats} if solution.stats else {})},
    }
    attach_reduction_meta(meta, sites)
    return CollectionTour(
        points=points, sojourns=sojourns, collected=collected,
        network=network, energy=energy, method="algorithm1",
        meta=meta)


__all__ = ["plan_algorithm1"]
