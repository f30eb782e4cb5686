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

from typing import Optional, Sequence

import numpy as np

from repro.core.auxgraph import (AuxiliaryGraph, build_auxiliary_graph,
                                 overlap_conflicts)
from repro.core.hovering import (HoveringSites, build_hovering_sites,
                                 check_prebuilt_sites)
from repro.core.tour import CollectionTour
from repro.energy.model import EnergyModel
from repro.network.sensor_network import SensorNetwork
from repro.obs.tracer import span
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
                    graph: Optional[AuxiliaryGraph] = None,
                    conflict_neighbors: Optional[Sequence[np.ndarray]] = None
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
        *conflict_neighbors* from :func:`~repro.core.auxgraph.
        overlap_conflicts` (a :class:`~repro.orienteering.problem.
        ConflictLists`) was validated when it was built; any other
        sequence of per-node lists is validated on this call.

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

    with span("alg1.reduction"):
        if graph is not None and sites is None:
            sites = graph.sites
        if sites is None:
            sites = build_hovering_sites(network, radio, delta)
        else:
            check_prebuilt_sites(sites, network, radio, delta)
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
    solution = solve_orienteering(instance, method=solver,
                                  n_restarts=n_restarts, seed=seed)

    visited_sites = solution.tour[solution.tour > 0] - 1  # back to site ids
    points = graph.points[solution.tour]
    sojourns = graph.hover_times[solution.tour]

    collected = np.zeros(network.n_nodes)
    union, _, _ = sites.csr.gather(visited_sites)
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
    return CollectionTour(
        points=points, sojourns=sojourns, collected=collected,
        network=network, energy=energy, method="algorithm1",
        meta=meta)


__all__ = ["plan_algorithm1"]
