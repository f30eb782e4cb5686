"""repro — UAV data collection from IoT devices under an energy budget.

A from-scratch reproduction of Li, Liang, Xu & Jia, *"Data Collection of
IoT Devices Using an Energy-Constrained UAV"* (IPDPS 2020): the full/partial
data-collection maximisation problems, the paper's Algorithms 1–3 and its
benchmark baseline, plus every substrate they need (sensor networks, UAV
energy model, radio model, δ-grid geometry, Christofides TSP, orienteering
solvers, and an independent mission-execution simulator).

Quickstart
----------
>>> from repro import (paper_default_network, PAPER_ENERGY_MODEL,
...                    PAPER_RADIO_MODEL, plan_tour)
>>> net = paper_default_network(n=100, seed=42)
>>> tour = plan_tour(net, PAPER_ENERGY_MODEL, PAPER_RADIO_MODEL,
...                  method="algorithm2", delta=20.0)
>>> tour.collected_volume > 0
True

See ``examples/`` for richer scenarios and ``repro-experiments`` for the
paper's evaluation figures.
"""

from repro.core import (
    CollectionTour,
    FeasibilityReport,
    plan_algorithm1,
    plan_algorithm2,
    plan_algorithm3,
    plan_benchmark,
    plan_tour,
    PLANNERS,
    build_hovering_sites,
    build_auxiliary_graph,
    PlannerKernel,
    validate_tour_feasibility,
    collection_upper_bound,
    UpperBoundReport,
    FleetPlan,
    plan_fleet,
)
from repro.energy import EnergyModel, EnergyLedger, PAPER_ENERGY_MODEL
from repro.geometry import Region, GridPartition, CoverageIndex
from repro.network import (
    SensorNetwork,
    NetworkGenerator,
    paper_default_network,
    uniform_network,
    clustered_network,
    grid_network,
)
from repro.radio import RadioModel, DistanceRateModel, PAPER_RADIO_MODEL
from repro.sim import simulate_mission, cross_validate, MissionTrace
from repro.utils import ReproError, InfeasibleTourError, InvalidParameterError

__version__ = "1.0.0"

__all__ = [
    # planning
    "plan_tour", "PLANNERS",
    "plan_algorithm1", "plan_algorithm2", "plan_algorithm3", "plan_benchmark",
    "CollectionTour", "FeasibilityReport", "validate_tour_feasibility",
    "build_hovering_sites", "build_auxiliary_graph",
    "PlannerKernel",
    "collection_upper_bound", "UpperBoundReport", "FleetPlan", "plan_fleet",
    # models
    "EnergyModel", "EnergyLedger", "PAPER_ENERGY_MODEL",
    "RadioModel", "DistanceRateModel", "PAPER_RADIO_MODEL",
    # networks & geometry
    "SensorNetwork", "NetworkGenerator", "paper_default_network",
    "uniform_network", "clustered_network", "grid_network",
    "Region", "GridPartition", "CoverageIndex",
    # simulation
    "simulate_mission", "cross_validate", "MissionTrace",
    # errors
    "ReproError", "InfeasibleTourError", "InvalidParameterError",
    "__version__",
]
