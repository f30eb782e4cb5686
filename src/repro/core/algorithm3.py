"""Paper Algorithm 3 — partial data collection over K virtual locations.

Each hovering location ``s_j`` expands into ``K`` virtual locations
``s_{j,k}`` with sojourn ``k * t(s_j) / K`` and partial award per Eq. 4.
The greedy loop scores every (site, k) pair by the ratio of residual data
collectable in that sojourn to the marginal energy, honouring the paper's
two bookkeeping rules:

* at most one *physical* visit per site — re-selecting an already-visited
  site is the Lemma 2 "upgrade": extra sojourn is added at zero travel
  cost (the tour is unchanged, matching
  ``S'_j <- S'_{j-1} ∪ {s_{j,k2}} \\ {s_{j,k1}}``);
* after each selection, residual volumes ``D_v^{(j)}`` and the dependent
  awards/hover times of overlapping candidates are recomputed
  (Algorithm 3, lines 11–12).  We recompute the *sojourn partitioning*
  from residual volumes too, so virtual durations always tile the
  remaining drain time — a strictly finer discretisation than reusing
  the original ``t(s_j)``, with identical behaviour at K = 1.

Like Algorithm 2, this module is a thin policy layer over
:class:`repro.core.kernel.PlannerKernel`: the kernel caches the residual
hover times, the per-(site, k) sojourns and partial awards, and the
cheapest-insertion deltas, recomputing rows only for candidates whose
covered sensors drained since the last step — the paper's "recompute the
overlapping candidates" rule (lines 11–12) made literal.  The selection
itself (line 6) is served from a :class:`RatioTable` that is rescored
only where the kernel's rows changed, with a lazy budget check.

With ``K = 1`` this planner coincides with Algorithm 2 (the paper's
observation that DCM is the special case of PDCM); the test suite asserts
that equivalence on seeded instances.  Like Algorithm 2, an optional
``polish`` pass 2-opts the finished tour and resumes the greedy loop with
the freed travel budget (both planners default to polishing, keeping the
Fig. 4/5 comparison fair).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.algorithm2 import _DENOM_EPS
from repro.core.hovering import (HoveringSites, build_hovering_sites,
                                 check_prebuilt_sites)
from repro.core.kernel import PlannerKernel
from repro.core.reduce import (ReducedSites, attach_reduction_meta,
                               reduce_sites, resolve_reduction)
from repro.core.tour import CollectionTour
from repro.energy.model import EnergyModel
from repro.geometry.distance import pairwise_distances
from repro.network.sensor_network import SensorNetwork
from repro.obs.tracer import span
from repro.radio.link import RadioModel
from repro.tsp.improve import two_opt
from repro.tsp.length import tour_length_matrix
from repro.utils.validation import check_integer

#: Residual volumes below this many MB are treated as fully collected,
#: which keeps the greedy loop from chasing floating-point dust.
_VOLUME_TOL = 1e-9


class RatioTable:
    """Algorithm 3's (site, k) ratio table with a lazy budget check.

    ``rho[j, k] = P'_k(s_j) / max(tau[j, k] * eta_h + delta_j * eta_t/v,
    eps)`` does not depend on the hover time or tour length spent so
    far, so it is kept in an ``(m, K)`` array.  Pairs failing the
    row-local tests (``p_partial > tol``, ``t' > tol / B``) hold ``-inf``.
    ``delta_j`` is the cheapest-insertion delta clamped at 0, and 0 for
    on-tour sites (the Lemma 2 upgrade travels nowhere).

    After an upgrade round only the rows the kernel's flush recomputed
    (:attr:`PlannerKernel.changed_rows`) are rescored; the whole table
    is rebuilt only when the tour changed (first round, an insertion,
    or a polish) — the planner says so through :attr:`stale`.

    The budget is checked lazily: the argmax pair's energy is evaluated
    as a scalar.  If it fits, it is the first maximum over a superset of
    the feasible pairs, hence the exact answer.  If not, every pair is
    checked once and the over-budget ones are set to ``-inf``.  Between
    tour changes the tour length is fixed and the hover time only grows,
    and IEEE rounding is monotone, so such a pair stays over budget until
    its row is rescored.
    """

    # repro: hot-path  (select() runs once per greedy round)

    def __init__(self, kern: PlannerKernel, energy: EnergyModel,
                 K: int) -> None:
        self.kern = kern
        self.eta_h = energy.hover_power
        self.etat_m = energy.travel_cost_per_meter
        self.capacity = energy.capacity
        # repro: allow[hot-path-purity] -- (m, K) ratio table, not (m, n)
        self.rho = np.full((kern.m, K), -np.inf)
        self.deltas = np.zeros(kern.m)
        self.stale = True

    def select(self, eligible_site: np.ndarray, tau: np.ndarray,
               p_partial: np.ndarray, hover: float,
               length: float) -> Optional[Tuple[int, int]]:
        """The first max-ratio ``(site, k)`` pair within budget, or None."""
        rows = self.kern.changed_rows
        if self.stale:
            deltas, _positions = self.kern.insertion_state()
            deltas = np.maximum(deltas, 0.0)
            deltas[self.kern.in_tour[1:]] = 0.0
            self.deltas = deltas
            self.stale = False
            rows = None
        self.refresh(rows, eligible_site, tau, p_partial)
        pick = self._argmax()
        if pick is None:
            return None
        j, k = pick
        if ((hover + tau[j, k]) * self.eta_h
                + (length + self.deltas[j]) * self.etat_m
                <= self.capacity + 1e-9):
            return pick
        self.mask_over_budget(tau, hover, length)
        return self._argmax()

    def refresh(self, rows: Optional[np.ndarray], eligible_site: np.ndarray,
                tau: np.ndarray, p_partial: np.ndarray) -> None:
        """Rescore *rows* of the table (``None``: every row)."""
        at = slice(None) if rows is None else rows
        p_rows = p_partial[at]
        denom = np.maximum(tau[at] * self.eta_h
                           + self.deltas[at][:, None] * self.etat_m,
                           _DENOM_EPS)
        valid = (p_rows > _VOLUME_TOL) & eligible_site[at][:, None]
        self.rho[at] = np.where(valid, p_rows / denom, -np.inf)

    def mask_over_budget(self, tau: np.ndarray, hover: float,
                         length: float) -> None:
        """Set every pair over the energy budget to ``-inf``."""
        new_energy = ((hover + tau) * self.eta_h
                      + (length + self.deltas)[:, None] * self.etat_m)
        self.rho[~(new_energy <= self.capacity + 1e-9)] = -np.inf

    def _argmax(self) -> Optional[Tuple[int, int]]:
        j, k = np.unravel_index(int(np.argmax(self.rho)), self.rho.shape)
        if self.rho[j, k] == -np.inf:
            return None
        return int(j), int(k)


def plan_algorithm3(network: SensorNetwork, energy: EnergyModel,
                    radio: RadioModel, delta: float, K: int, *,
                    polish: bool = True,
                    sites: Optional[HoveringSites] = None,
                    site_reduction=None,
                    max_iterations: Optional[int] = None) -> CollectionTour:
    """Plan a partial-collection tour with the K-virtual-location heuristic.

    Parameters
    ----------
    network, energy, radio, delta:
        Problem inputs; ``delta`` is the grid edge length.
    K:
        Number of equal sojourn partitions per hovering location (>= 1).
    polish:
        2-opt the finished tour and resume greedy selection with the
        freed budget (never reduces collected volume).
    sites:
        Pre-built hovering sites (else built from the inputs).  A
        :class:`~repro.core.reduce.ReducedSites` is used as-is.
    site_reduction:
        Candidate-site reduction pre-pass config (``None``/``"off"``,
        ``"safe"``, ``"aggressive"``, or a
        :class:`~repro.core.reduce.SiteReduction` / its dict form);
        ignored when *sites* is already reduced.
    max_iterations:
        Safety bound on greedy iterations, an integer >= 0 (default
        ``2 * K * (m + 1)``, mirroring the paper's ``M' = K * M``
        virtual-square count with headroom for post-polish resumption).
    """
    # repro: hot-path  (the greedy loop must stay O(overlap) per step)
    K = check_integer(K, "K", minimum=1)
    if max_iterations is not None:
        max_iterations = check_integer(max_iterations, "max_iterations",
                                       minimum=0)
    reduction = resolve_reduction(site_reduction)
    if sites is None:
        sites = build_hovering_sites(network, radio, delta)
    else:
        check_prebuilt_sites(sites, network, radio, delta)
    if reduction.enabled and not isinstance(sites, ReducedSites):
        sites = reduce_sites(sites, reduction, energy=energy)

    kern = PlannerKernel(sites, energy, radio, volume_tol=_VOLUME_TOL)
    table = RatioTable(kern, energy, K)
    pts_all = kern.points_all
    bandwidth = radio.bandwidth
    m = sites.n_sites

    # --- mutable planner state shared by the greedy loop and the polish ---
    sojourn_of: Dict[int, float] = {0: 0.0}
    state = {"hover": 0.0, "len": 0.0, "iters": 0}
    limit = max_iterations if max_iterations is not None else 2 * K * (m + 1)
    fractions = np.arange(1, K + 1) / K                          # (K,)

    def greedy_loop() -> None:
        """Select (site, k) pairs by max ratio until nothing feasible."""
        while state["iters"] < limit:
            # One greedy round (one (site, k) selection or termination).
            with span("alg3.round"):
                state["iters"] += 1
                # Residual hover times t', sojourns tau[j, k], and partial
                # awards (Eq. 4 on residuals) — cached, dirty rows refreshed.
                t_max, tau, p_partial = kern.partial_scores(fractions)
                eligible_site = t_max > _VOLUME_TOL / bandwidth
                if not eligible_site.any():
                    return

                pick = table.select(eligible_site, tau, p_partial,
                                    state["hover"], state["len"])
                if pick is None:
                    return
                j, k = pick

                node = j + 1
                duration = float(tau[j, k])
                if not kern.in_tour[node]:
                    kern.insert(j)
                    state["len"] += float(table.deltas[j])
                    sojourn_of[node] = 0.0
                    table.stale = True
                sojourn_of[node] += duration
                state["hover"] += duration

                # Drain residuals (OFDMA: each covered device uploads
                # min(rem, B * duration) on its own channel).
                kern.drain_partial(j, duration)

    with span("alg3.greedy"):
        greedy_loop()

    if polish and len(kern.tour) >= 4:
        with span("alg3.polish"):
            tour_arr = np.array(kern.tour, dtype=int)
            # repro: allow[hot-path-purity] -- (|tour|, |tour|), not (m, n)
            local_dist = pairwise_distances(pts_all[tour_arr])
            improved = two_opt(np.arange(len(tour_arr)), local_dist)
            start = int(np.flatnonzero(tour_arr[improved] == 0)[0])
            order = np.roll(improved, -start)
            kern.set_tour([int(tour_arr[i]) for i in order])
            table.stale = True
            state["len"] = tour_length_matrix(
                np.arange(len(order)), local_dist[np.ix_(order, order)])
            greedy_loop()

    sojourns = np.array([sojourn_of[v] for v in kern.tour])
    collected = network.volumes - kern.rem
    meta = {
        "n_candidates": m,
        "n_virtual_candidates": m * K,
        "n_visited": len(kern.tour) - 1,
        "iterations": state["iters"],
        "K": K,
        "polished": bool(polish),
        "delta": float(sites.delta),
        "perf": kern.perf(),
    }
    attach_reduction_meta(meta, sites)
    return CollectionTour(
        points=pts_all[np.array(kern.tour, dtype=int)],
        sojourns=sojourns, collected=collected,
        network=network, energy=energy, method="algorithm3",
        meta=meta)


__all__ = ["RatioTable", "plan_algorithm3"]
