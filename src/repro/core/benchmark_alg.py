"""The paper's comparison baseline (§VII-A).

Build a Christofides tour over *all* aggregate sensor nodes plus the depot
(the UAV hovers directly above each sensor and drains it at bandwidth B).
While the tour's energy exceeds the battery, remove the node whose removal
loses the least data per joule saved — i.e. the minimum of

    D_v / (hover_energy(v) + travel_energy_saved_by_splicing(v)),

then splice its neighbours together.  The loop always terminates because
the depot-only tour costs zero energy.

The pruning loop runs on :class:`repro.core.kernel.PruneCache`: a
removal only changes the splice savings of the removed node's two
neighbours, so each round is two scalar rescores plus one vectorised
argmin instead of a fresh Python pass over the whole tour (O(k) vs O(k²)
scalar work across a prune-down).

The unpruned tour depends only on the sensor positions and the depot —
never on the battery, the radio or δ — so :func:`baseline_tour` builds
it on its own, and a sweep builds it once per instance
(:meth:`repro.experiments.artifacts.ArtifactCache.baseline_tour`) and
passes it in as ``tour=``; only the prune loop then runs per cell.

The paper's running-time observation — the baseline gets *faster* as the
battery grows, because fewer nodes need pruning — falls straight out of
this structure and is reproduced by the Fig. 3(b)/5(b) benches.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.kernel import PruneCache
from repro.core.tour import CollectionTour
from repro.energy.model import EnergyModel
from repro.geometry.distance import pairwise_distances
from repro.network.sensor_network import SensorNetwork
from repro.obs.tracer import span
from repro.radio.link import RadioModel
from repro.tsp.christofides import christofides_tour
from repro.tsp.length import tour_length_matrix
from repro.utils.errors import InvalidParameterError


def _stops(network: SensorNetwork) -> np.ndarray:
    """The depot (node 0) then every sensor: the baseline's stops."""
    return np.vstack([network.depot[None, :], network.positions])


def baseline_tour(network: SensorNetwork) -> np.ndarray:
    """The baseline's unpruned tour: Christofides over depot + sensors.

    A permutation of ``0..n`` starting at the depot 0 (sensor ``v`` is
    node ``v``); ``[0]`` for an empty network.  :func:`plan_benchmark`
    builds the same tour when it is not given one.
    """
    return christofides_tour(pairwise_distances(_stops(network)), start=0)


def _check_tour(tour: np.ndarray, n: int) -> List[int]:
    """A prebuilt tour as a list, if it is a permutation of ``0..n``
    starting at the depot; raises :class:`InvalidParameterError` else."""
    order = np.asarray(tour)
    if (order.ndim != 1 or order.size != n + 1
            or not np.issubdtype(order.dtype, np.integer)
            or order[0] != 0
            or not np.array_equal(np.sort(order), np.arange(n + 1))):
        raise InvalidParameterError(
            f"tour must be a permutation of 0..{n} starting at the depot 0")
    return order.tolist()


def plan_benchmark(network: SensorNetwork, energy: EnergyModel,
                   radio: RadioModel,
                   tour: Optional[np.ndarray] = None) -> CollectionTour:
    """Plan a tour with the Christofides-then-prune baseline.

    Parameters
    ----------
    network, energy, radio:
        Problem inputs.  Note the baseline ignores the δ-grid entirely:
        its hovering locations are the sensor positions themselves, and
        each visit collects exactly that sensor's data (the paper's
        baseline does not exploit multi-sensor coverage).
    tour:
        Optional prebuilt :func:`baseline_tour` of *network* (e.g. from
        the sweep's artifact cache).  It must be a permutation of
        ``0..n`` starting at the depot 0; ``None`` builds it here.
    """
    # repro: hot-path  (the prune-down must stay O(1) rescores per removal)
    n = network.n_nodes
    initial = None if tour is None else _check_tour(tour, n)
    pts_all = _stops(network)
    volumes = network.volumes
    hover_times = volumes / radio.bandwidth               # D_v / B per sensor
    eta_h = energy.hover_power
    etat_m = energy.travel_cost_per_meter
    capacity = energy.capacity

    # The prune needs the full (n+1, n+1) sensor metric; the baseline's
    # n is the sensor count, not the candidate-grid m.
    # repro: allow[hot-path-purity] -- (n+1, n+1) over sensors, not (m, n)
    dist = pairwise_distances(pts_all)
    if initial is None:
        initial = christofides_tour(dist, start=0).tolist()

    def tour_energy(order: List[int]) -> float:
        travel = tour_length_matrix(np.array(order, dtype=int), dist)
        hover = sum(hover_times[v - 1] for v in order if v != 0)
        return hover * eta_h + travel * etat_m

    removals = 0
    current = tour_energy(initial)
    with span("benchmark.prune"):
        cache = PruneCache(dist, volumes, hover_times, eta_h, etat_m)
        cache.set_tour(initial)
        while current > capacity + 1e-9 and len(cache.tour) > 1:
            best_i = cache.best()
            if best_i < 0:
                # No single removal saves energy: every sensor left has
                # no hover cost and sits on its splice (e.g. zero-volume
                # sensors co-located with a tour neighbour).  Removing
                # one changes its neighbours' savings, so drop the one
                # holding the least data; the depot-only tour is free.
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
        meta={
            "n_visited": int(len(order) - 1),
            "removals": removals,
            "initial_nodes": n,
            "perf": {"engine": "kernel", "ratios_rescored": cache.rescored},
        })


__all__ = ["plan_benchmark", "baseline_tour"]
