"""Exact solver for the (full) data collection maximisation problem.

The paper proves DCM NP-hard and offers no optimal baseline, so the
heuristics' absolute quality is never measured.  This module closes that
gap on small instances with a Held–Karp-style dynamic program over
(visited-site set, last site).

The subtlety the DP must capture: with coverage overlap, the hover time a
site needs is **order-dependent** — a sensor uploads fully at the *first*
visited site covering it (its upload time is bounded by that site's
sojourn, Eq. 12), so a later overlapping site only waits for its *newly*
covered sensors.  The DP transition therefore charges site ``k`` the
hover time of the sensors in ``C(k)`` not covered by any earlier site:

    dp[mask | {k}, k] = min over j in mask of
        dp[mask, j] + travel(j, k) + eta_h * t_add(k, mask)

where ``t_add(k, mask) = max D_v / B over v in C(k) \\ C(mask)``.  The
optimum is the maximum union award over all masks whose cheapest closed
tour fits the budget.

Complexity O(2^m * m * (m + n)) — practical to ``m`` ≈ 14 candidate
sites.  The test suite uses it to pin Algorithms 1–2 within a measured
factor of optimal (Algorithm 3's *partial* collection may legitimately
exceed the full-collection optimum), and
``benchmarks/bench_optimality_gap.py`` reports the gaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.hovering import HoveringSites, build_hovering_sites
from repro.core.tour import CollectionTour
from repro.energy.model import EnergyModel
from repro.geometry.distance import pairwise_distances
from repro.network.sensor_network import SensorNetwork
from repro.radio.link import RadioModel
from repro.utils.errors import InvalidParameterError

#: Hard cap on candidate sites for the exhaustive solver.
MAX_EXACT_SITES = 14


@dataclass(frozen=True)
class ExactDCMResult:
    """The optimal full-collection plan for a small instance.

    Attributes
    ----------
    tour:
        The optimal :class:`CollectionTour` (order-aware sojourns).
    optimal_volume:
        Its collected volume (MB) — the certified optimum for the
        discretised instance (hovering restricted to the δ-grid,
        full-collection semantics).
    states_evaluated:
        Number of DP states expanded (diagnostics).
    """

    tour: CollectionTour
    optimal_volume: float
    states_evaluated: int


def solve_dcm_exact(network: SensorNetwork, energy: EnergyModel,
                    radio: RadioModel, delta: float, *,
                    sites: Optional[HoveringSites] = None,
                    max_sites: int = MAX_EXACT_SITES) -> ExactDCMResult:
    """Certified-optimal DCM (with overlap) over the δ-grid candidates.

    Parameters
    ----------
    network, energy, radio, delta:
        Problem inputs, as for the heuristic planners.
    sites:
        Pre-built hovering sites (else built from the inputs).
    max_sites:
        Refuse instances with more candidate sites than this (the DP is
        exponential in the site count).

    Raises
    ------
    InvalidParameterError
        When the candidate-site count exceeds *max_sites*.
    """
    if sites is None:
        sites = build_hovering_sites(network, radio, delta)
    m = sites.n_sites
    if m > max_sites:
        raise InvalidParameterError(
            f"exact DCM limited to {max_sites} candidate sites, "
            f"instance has {m} (raise delta or shrink the network)")
    if network.n_nodes > 62:
        raise InvalidParameterError(
            "exact DCM uses int64 sensor bitmasks; limited to 62 sensors, "
            f"instance has {network.n_nodes}")

    pts_all = np.vstack([network.depot[None, :], sites.points])
    dist = pairwise_distances(pts_all)
    eta_h = energy.hover_power
    etat_m = energy.travel_cost_per_meter
    capacity = energy.capacity
    n = network.n_nodes
    volumes = network.volumes
    upload_times = volumes / radio.bandwidth

    # Sensor-coverage bitmask per site, and award per sensor-bitmask.
    site_bits = np.zeros(m, dtype=np.int64)
    for j in range(m):
        bits = 0
        for v in sites.csr.sensors_of(j):
            bits |= 1 << int(v)
        site_bits[j] = bits

    def t_add(k: int, covered_bits: int) -> float:
        """Hover time site k needs given already-covered sensors."""
        new = int(site_bits[k]) & ~covered_bits
        t = 0.0
        while new:
            low = new & -new
            v = low.bit_length() - 1
            if upload_times[v] > t:
                t = upload_times[v]
            new ^= low
        return t

    def award_of(bits: int) -> float:
        total = 0.0
        while bits:
            low = bits & -bits
            total += volumes[low.bit_length() - 1]
            bits ^= low
        return total

    full = 1 << m
    INF = np.inf
    dp = np.full((full, m), INF)
    parent = np.full((full, m), -1, dtype=int)
    # covered_bits[mask] = union of sensor bits of the sites in mask.
    covered_bits = np.zeros(full, dtype=np.int64)
    for mask in range(1, full):
        low = mask & -mask
        covered_bits[mask] = covered_bits[mask ^ low] \
            | site_bits[low.bit_length() - 1]

    travel0 = dist[0, 1:] * etat_m           # depot -> site
    travel = dist[1:, 1:] * etat_m           # site -> site

    for j in range(m):
        dp[1 << j, j] = travel0[j] + eta_h * t_add(j, 0)

    states = 0
    best_award, best_mask, best_last = 0.0, 0, -1
    for mask in range(1, full):
        row = dp[mask]
        live = np.flatnonzero(np.isfinite(row))
        if len(live) == 0:
            continue
        cb = int(covered_bits[mask])
        # Feasibility of closing the tour from any endpoint.
        closes = row[live] + travel0[live]
        feasible = closes <= capacity + 1e-9
        if feasible.any():
            award = award_of(cb)
            if award > best_award + 1e-12:
                best_award = award
                best_mask = mask
                best_last = int(live[feasible][int(np.argmin(closes[feasible]))])
        rest = ~mask & (full - 1)
        for j in live:
            states += 1
            base = row[j]
            if base > capacity + 1e-9:
                continue  # already over budget; extensions only add cost
            kk = rest
            while kk:
                low = kk & -kk
                k = low.bit_length() - 1
                cand = base + travel[j, k] + eta_h * t_add(k, cb)
                nm = mask | low
                if cand < dp[nm, k]:
                    dp[nm, k] = cand
                    parent[nm, k] = j
                kk ^= low

    # Reconstruct the optimal order.
    if best_last < 0:
        order = np.array([0])
    else:
        sites_order = []
        mask, j = best_mask, best_last
        while j != -1:
            sites_order.append(j)
            pj = parent[mask, j]
            mask ^= 1 << j
            j = pj
        sites_order.reverse()
        order = np.array([0, *[s + 1 for s in sites_order]])

    # Order-aware sojourns and per-sensor collection.
    sojourns = np.zeros(len(order))
    collected = np.zeros(n)
    cb = 0
    for pos, node in enumerate(order):
        if node == 0:
            continue
        k = node - 1
        sojourns[pos] = t_add(k, cb)
        new = int(site_bits[k]) & ~cb
        while new:
            low = new & -new
            v = low.bit_length() - 1
            collected[v] = volumes[v]
            new ^= low
        cb |= int(site_bits[k])

    tour = CollectionTour(points=pts_all[order], sojourns=sojourns,
                          collected=collected, network=network,
                          energy=energy, method="exact-dcm",
                          meta={"states_evaluated": states,
                                "n_candidates": m,
                                "delta": float(sites.delta)})
    return ExactDCMResult(tour=tour, optimal_volume=best_award,
                          states_evaluated=states)


def optimality_gap(heuristic_volume: float, optimal_volume: float) -> float:
    """Fraction of the optimum the heuristic achieved (1.0 = optimal).

    A zero optimum (nothing collectible) counts as gap 1.0 for any
    heuristic that also collects nothing.
    """
    if optimal_volume <= 1e-12:
        return 1.0 if heuristic_volume <= 1e-12 else float("inf")
    return heuristic_volume / optimal_volume


__all__ = ["ExactDCMResult", "solve_dcm_exact", "optimality_gap",
           "MAX_EXACT_SITES"]
