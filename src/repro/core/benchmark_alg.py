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
scalar work across a prune-down).  The loop's energy test reads a
*running* tour energy: each removal subtracts its splice saving, and the
fresh sum over the tour is taken only when the running value lies within
a proven rounding margin of the threshold (:func:`_prune_margin`), so
every decision is the one the fresh sum would take.

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


def _prune_margin(n: int, initial: float) -> float:
    """Rounding margin of the prune loop's running tour energy.

    The loop keeps ``R``: the fresh energy ``F(τ_0)`` of the initial tour,
    minus each removal's splice saving as :meth:`PruneCache.saving`
    computes it.  It compares ``R`` with ``L = capacity + 1e-9`` and takes
    the fresh sum ``F`` (the old per-removal test, kept as it was) only
    when ``|R - L|`` is within this margin.  Claim: ``|R - F(τ)| <=
    margin`` on every tour ``τ`` of the prune-down, so ``R - L > margin``
    implies ``F > L`` and ``L - R > margin`` implies ``F <= L``, and no
    decision differs from the fresh sum's.

    Proof.  Let ``u = 2**-53``, ``γ_j = j·u / (1 - j·u)``, and ``E(τ) =
    η_h·H + η_t·T`` the exact energy over the stored inputs (hover times
    ``h``, distances ``d``, both ``>= 0``).  (1) ``F`` sums at most
    ``n + 1`` non-negative terms per part (a sequential ``sum`` of hover
    times, a NumPy sum of edge lengths), then two products and one
    addition, so ``|F(τ) - E(τ)| <= γ_{n+2}·E(τ)``.  (2) A removal of
    ``v`` between ``p`` and ``q`` changes ``E`` by exactly ``S = h_v·η_h
    + (d_pv + d_vq - d_pq)·η_t``; its computed ``Ŝ`` (five rounded
    operations) is off by at most ``γ_4·M`` with ``M = h_v·η_h + (d_pv +
    d_vq + d_pq)·η_t``, and the subtraction from ``R`` by at most
    ``u·|R - Ŝ|``.  (3) The initial tour visits every node, so its length
    is at least twice any distance (each ``d`` is the rounded Euclidean
    distance, within ``3u`` relative), hence ``M <= 1.6·E(τ_0)``; and
    ``S`` is negative by no more than the distances' rounding, so ``E``,
    and ``R`` with it, stays below ``1.1·E(τ_0)``.  Over at most ``n``
    removals, ``|R - E(τ)| <= γ_{n+2}·E(τ_0) + n·(1.6·γ_4 + 1.1·u)·
    E(τ_0)``, so ``|R - F(τ)| <= 11·(n + 1)·u·E(τ_0)`` to first order.
    With ``E(τ_0) <= 1.01·F(τ_0)``, ``16·(n + 1)·eps·F(τ_0)`` (``eps =
    2u``) exceeds that by more than 2×, which also absorbs the rounding
    of ``R - L`` and of the margin itself.  Taking a fresh sum resets
    ``R`` to ``F``, which restarts the bound.  An infinite or NaN ``F``
    makes the margin infinite or NaN, and every test takes the fresh
    sum.  ∎
    """
    return 16.0 * (n + 1) * float(np.finfo(float).eps) * float(initial)


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
    limit = capacity + 1e-9
    margin = _prune_margin(n, current)
    with span("benchmark.prune"):
        cache = PruneCache(dist, volumes, hover_times, eta_h, etat_m)
        cache.set_tour(initial)
        while len(cache.tour) > 1:
            # The running energy decides unless it lies within the
            # rounding margin of the limit (see _prune_margin).
            if not abs(current - limit) > margin:
                current = tour_energy(cache.tour)
            if not current > limit:
                break
            best_i = cache.best()
            if best_i < 0:
                # No single removal saves energy: every sensor left has
                # no hover cost and sits on its splice (e.g. zero-volume
                # sensors co-located with a tour neighbour).  Removing
                # one changes its neighbours' savings, so drop the one
                # holding the least data; the depot-only tour is free.
                best_i = min(range(1, len(cache.tour)),
                             key=lambda i: volumes[cache.tour[i] - 1])
            current -= cache.saving(best_i)
            cache.remove(best_i)
            removals += 1

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
