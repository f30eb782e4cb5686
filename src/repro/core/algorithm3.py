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

Most rounds are upgrades of an on-tour site ``j`` with one undrained
sensor ``v``: every k then has the same ratio up to the last bit, the
first maximum takes the shortest sojourn, and because sojourns re-tile
the residual, ``v`` drains by ``1/K`` of its residual per round until the
dust snap (on 4 fig4-reduced instances × 5 δ × K ∈ {2, 4}, 10,120 of
11,920 rounds).  Such a chain is replayed in one pass
(:meth:`RatioTable.chain`): ``j``'s rounds in the loop's own scalar
arithmetic, the rows not covering ``v`` bounded by one argmax taken at
the start (they are not rescored meanwhile), and the rows covering
``v`` recomputed for every round in one ``(rounds, nnz)`` block per k.
The pass stops at the first round the round-by-round loop would spend
elsewhere, so plans and ``meta["perf"]`` are bitwise unchanged.

With ``K = 1`` this planner coincides with Algorithm 2 (the paper's
observation that DCM is the special case of PDCM); the test suite asserts
that the two take bitwise the same tours.  Like Algorithm 2, an optional
``polish`` pass 2-opts the finished tour and resumes the greedy loop with
the freed travel budget (both planners default to polishing, keeping the
Fig. 4/5 comparison fair).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.algorithm2 import _DENOM_EPS
from repro.core.hovering import (HoveringSites, build_hovering_sites,
                                 check_prebuilt_sites)
from repro.core.kernel import PlannerKernel, _segment_reduce
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
    its row is rescored.  :attr:`rescanned` says whether the last
    :meth:`select` did that rescan.

    :meth:`chain` scores a tied one-sensor upgrade chain in one pass.
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
        self.rescanned = False

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
        self.rescanned = not ((hover + tau[j, k]) * self.eta_h
                              + (length + self.deltas[j]) * self.etat_m
                              <= self.capacity + 1e-9)
        if not self.rescanned:
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

    def chain(self, j: int, v: int, fractions: np.ndarray, hover: float,
              length: float, rounds: int) -> Tuple[List[float], str]:
        """Sojourns of the next rounds on site *j*, scored in one pass.

        *j* is on the tour and its one undrained sensor *v* is the only
        dirty sensor (:meth:`PlannerKernel.lone_sensor`), so every round
        until *j* loses rescores exactly the rows covering *v*.  The
        pass returns the sojourns the round-by-round loop would take on
        *j*, at most *rounds* of them, and why it stopped: ``"dust"``
        (the dust snap emptied *v*), ``"drained"`` (*j* has no eligible
        pair otherwise), ``"outside"`` (a row not covering *v* wins),
        ``"budget"`` (*j*'s pair is over budget), ``"limit"`` (*rounds*
        reached) or ``"rival"`` (another row covering *v* wins).  The
        table is left as it was.
        """
        kern = self.kern
        K = self.rho.shape[1]
        bw, eta_h, etat_m = kern.bandwidth, self.eta_h, self.etat_m
        rows = kern.csr.sites_of(v)
        # Rows not covering v are not rescored during the chain: their
        # first maximum, taken once, bounds every round.
        kept = self.rho[rows]
        self.rho[rows] = -np.inf
        out_flat = int(np.argmax(self.rho))
        out_best, out_row = float(self.rho.flat[out_flat]), out_flat // K
        self.rho[rows] = kept

        # j's rounds, in the loop's own scalar arithmetic: t' = r/B,
        # tau_k = t'·f_k, P'_k = min(r, B·tau_k) (j's other sensors add
        # exact zeros), the first-max k, the lazy budget test, the drain.
        fracs = fractions.tolist()
        delta_j = float(self.deltas[j])
        travel_j = delta_j * etat_m
        r = float(kern.rem[v])
        taus: List[float] = []
        resid: List[float] = []
        best_j: List[float] = []
        stop, snapped = "limit", False
        while len(taus) < rounds:
            t = r / bw
            if not t > _VOLUME_TOL / bw:
                stop = "dust" if snapped else "drained"
                break
            best, kb = -np.inf, 0
            for k, f in enumerate(fracs):
                tau = t * f
                p = min(r, bw * tau)
                if p > _VOLUME_TOL:
                    ratio = p / max(tau * eta_h + travel_j, _DENOM_EPS)
                    if ratio > best:
                        best, kb = ratio, k
            if best == -np.inf:
                stop = "drained"
                break
            if not (best > out_best or (best == out_best and j < out_row)):
                stop = "outside"
                break
            tau = t * fracs[kb]
            if not ((hover + tau) * eta_h + (length + delta_j) * etat_m
                    <= self.capacity + 1e-9):
                stop = "budget"
                break
            taus.append(tau)
            resid.append(r)
            best_j.append(best)
            hover += tau
            r -= min(r, bw * tau)
            snapped = 0.0 < r < kern.volume_tol
            if snapped:
                r = 0.0

        others = rows[rows != j]
        if taus and len(others):
            lost = self._rival_rounds(others, v, j, np.array(resid),
                                      np.array(best_j), fractions)
            if lost.any():
                taus = taus[:int(np.argmax(lost))]
                stop = "rival"
        return taus, stop

    def _rival_rounds(self, others: np.ndarray, v: int, j: int,
                      resid: np.ndarray, best_j: np.ndarray,
                      fractions: np.ndarray) -> np.ndarray:
        """Rounds in which a row of *others* (sites covering *v*) beats *j*.

        Row ``i`` of each block is the kernel's flush of *others* with
        ``rem[v] = resid[i]`` and the refresh's ratios, in the same
        IEEE expressions; one ``(rounds, nnz)`` block per k.  A row
        below *j* wins a tie (first maximum), a row above it does not.
        """
        kern = self.kern
        bw = kern.bandwidth
        idxs, starts, lengths = kern.csr.gather(others)
        # repro: allow[hot-path-purity] -- (rounds, nnz of v's covering sites)
        vals = np.empty((len(resid), len(idxs)))
        vals[:] = kern.rem[idxs]
        vals[:, idxs == v] = resid[:, None]
        t_rows = _segment_reduce(vals, starts, lengths, np.maximum) / bw
        live = t_rows > _VOLUME_TOL / bw
        travel = self.deltas[others] * self.etat_m
        lower = others < j
        best = best_j[:, None]
        lost = np.zeros(len(resid), dtype=bool)
        for f in fractions:
            tau = t_rows * f
            p = _segment_reduce(
                np.minimum(vals, np.repeat(bw * tau, lengths, axis=1)),
                starts, lengths, np.add)
            denom = np.maximum(tau * self.eta_h + travel, _DENOM_EPS)
            ratio = np.where((p > _VOLUME_TOL) & live, p / denom, -np.inf)
            lost |= np.where(lower, ratio >= best, ratio > best).any(axis=1)
        return lost


def round_bound(volumes: np.ndarray, K: int) -> int:
    """Most greedy iterations a :func:`plan_algorithm3` run can take.

    The default ``max_iterations``: it never stops a run that would end
    by itself, so it only guards against a defect.  The argument:

    * A round picks an eligible site ``j``, so its largest residual
      ``r*`` satisfies ``r*/B > tol/B``, hence ``r* > tol`` (rounding
      is monotone), and a sojourn ``tau = t'_j * k/K`` with ``k >= 1``.
    * The sensor holding ``r*`` uploads ``min(r*, B * tau)``.  With
      ``t' = r*/B``, ``k/K``, ``tau`` and ``B * tau`` each rounded once,
      that is at least ``(1 - 4u) * r*/K`` (``u = 2**-53``), so its
      residual drops to at most ``q * r*`` with ``q = 1 - 1/(2K)``
      (for any ``K < 2**50``).  A chain round is such a round too.
    * Charge each round to that sensor ``v``.  Residuals never grow, so
      before ``v``'s ``i``-th charged round ``tol < r_v <= D_v *
      q**(i - 1)``: ``v`` is charged at most ``ceil(log(D_v/tol) /
      log(1/q))`` rounds, and never when ``D_v <= tol``.
    * Each greedy loop ends with one round that selects nothing, and
      the polish resumes the loop once: two more.

    One round of slack per sensor absorbs the rounding of the logs.
    """
    live = np.asarray(volumes, dtype=float)
    live = live[live > _VOLUME_TOL]
    per_sensor = np.ceil((np.log(live) - np.log(_VOLUME_TOL))
                         / -np.log1p(-0.5 / K)) + 1.0
    return int(per_sensor.sum()) + 2


def plan_algorithm3(network: SensorNetwork, energy: EnergyModel,
                    radio: RadioModel, delta: float, K: int, *,
                    polish: bool = True,
                    sites: Optional[HoveringSites] = None,
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
        Pre-built hovering sites (else built from the inputs).
    max_iterations:
        Cap on greedy iterations, an integer >= 0.  The default,
        :func:`round_bound` of the volumes, provably never stops a run
        that would end by itself.
    """
    # repro: hot-path  (the greedy loop must stay O(overlap) per step)
    K = check_integer(K, "K", minimum=1)
    if max_iterations is not None:
        max_iterations = check_integer(max_iterations, "max_iterations",
                                       minimum=0)
    if sites is None:
        sites = build_hovering_sites(network, radio, delta)
    else:
        check_prebuilt_sites(sites, network, radio, delta)

    kern = PlannerKernel(sites, energy, radio, volume_tol=_VOLUME_TOL)
    table = RatioTable(kern, energy, K)
    pts_all = kern.points_all
    bandwidth = radio.bandwidth
    m = sites.n_sites

    # --- mutable planner state shared by the greedy loop and the polish ---
    sojourn_of: Dict[int, float] = {0: 0.0}
    state = {"hover": 0.0, "len": 0.0, "iters": 0}
    limit = (max_iterations if max_iterations is not None
             else round_bound(network.volumes, K))
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
                upgrade = bool(kern.in_tour[node])
                if not upgrade:
                    kern.insert(j)
                    state["len"] += float(table.deltas[j])
                    sojourn_of[node] = 0.0
                    table.stale = True
                sojourn_of[node] += duration
                state["hover"] += duration

                # Drain residuals (OFDMA: each covered device uploads
                # min(rem, B * duration) on its own channel).
                kern.drain_partial(j, duration)
            if upgrade:
                replay_chain(j)

    def replay_chain(j: int) -> None:
        """Replay the tied rounds on *j*'s lone undrained sensor at once."""
        # After a budget rescan the masked pair is, as a rule, a site
        # covering v that outranks j again next round: the pass would
        # stop at once, so those rounds stay round by round.
        if table.rescanned or state["iters"] >= limit:
            return
        v = kern.lone_sensor(j)
        if v < 0:
            return
        with span("alg3.chain") as chain_span:
            taus, stop = table.chain(j, v, fractions, state["hover"],
                                     state["len"], limit - state["iters"])
            kern.drain_chain(j, taus)
            node = j + 1
            for duration in taus:
                sojourn_of[node] += duration
                state["hover"] += duration
            state["iters"] += len(taus)
            chain_span.set(rounds=len(taus), stop=stop)

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
    return CollectionTour(
        points=pts_all[np.array(kern.tour, dtype=int)],
        sojourns=sojourns, collected=collected,
        network=network, energy=energy, method="algorithm3",
        meta=meta)


__all__ = ["RatioTable", "plan_algorithm3", "round_bound"]
