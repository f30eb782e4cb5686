"""The paper's primary contribution: UAV data-collection tour planners.

* :mod:`repro.core.hovering` — candidate hovering locations on the δ-grid
  with their coverage sets, awards ``p``, and hover times ``t`` (Eqs. 1–2, 6–7),
* :mod:`repro.core.auxgraph` — the auxiliary energy-weighted graph ``G_s``
  (Eqs. 8–9) whose metricity Lemma 1 proves,
* :mod:`repro.core.tour` — the :class:`CollectionTour` result type and the
  independent feasibility validator,
* :mod:`repro.core.algorithm1` — DCM without hovering-coverage overlap via
  orienteering on ``G_s`` (paper Algorithm 1),
* :mod:`repro.core.algorithm2` — greedy max-ratio heuristic for DCM with
  overlap (paper Algorithm 2),
* :mod:`repro.core.algorithm3` — partial-collection heuristic over K
  virtual hovering locations (paper Algorithm 3),
* :mod:`repro.core.benchmark_alg` — the paper's comparison baseline
  (Christofides tour over all sensors + min-ratio pruning),
* :mod:`repro.core.planner` — one-call facade over all four planners.
"""

from repro.core.hovering import HoveringSites, build_hovering_sites
from repro.core.kernel import PlannerKernel, PruneCache
from repro.core.auxgraph import AuxiliaryGraph, build_auxiliary_graph
from repro.core.tour import CollectionTour, FeasibilityReport, validate_tour_feasibility
from repro.core.algorithm1 import plan_algorithm1
from repro.core.algorithm2 import plan_algorithm2
from repro.core.algorithm3 import plan_algorithm3
from repro.core.benchmark_alg import plan_benchmark
from repro.core.planner import plan_tour, PLANNERS
from repro.core.bounds import UpperBoundReport, collection_upper_bound, hover_bound, reach_bound
from repro.core.multi_uav import FleetPlan, plan_fleet, partition_sectors, partition_kmeans
from repro.core.exact_dcm import ExactDCMResult, solve_dcm_exact, optimality_gap
from repro.core.export import (
    Waypoint,
    tour_to_waypoints,
    tour_to_plan_dict,
    tour_to_plan_json,
    tour_to_csv,
    waypoints_to_tour,
    plan_dict_to_tour,
)

__all__ = [
    "UpperBoundReport",
    "collection_upper_bound",
    "hover_bound",
    "reach_bound",
    "FleetPlan",
    "plan_fleet",
    "partition_sectors",
    "partition_kmeans",
    "ExactDCMResult",
    "solve_dcm_exact",
    "optimality_gap",
    "Waypoint",
    "tour_to_waypoints",
    "tour_to_plan_dict",
    "tour_to_plan_json",
    "tour_to_csv",
    "waypoints_to_tour",
    "plan_dict_to_tour",
    "HoveringSites",
    "build_hovering_sites",
    "PlannerKernel",
    "PruneCache",
    "AuxiliaryGraph",
    "build_auxiliary_graph",
    "CollectionTour",
    "FeasibilityReport",
    "validate_tour_feasibility",
    "plan_algorithm1",
    "plan_algorithm2",
    "plan_algorithm3",
    "plan_benchmark",
    "plan_tour",
    "PLANNERS",
]
