"""Incremental planner state engine shared by Algorithms 2/3 and the baseline.

The paper's greedy loops (Algorithms 2 and 3) repeatedly need three
quantities for *every* candidate hovering location:

* the residual award ``P'(s_j)`` (Eq. 11),
* the residual hover time ``t'(s_j)`` (Eq. 12),
* the cheapest-insertion tour delta ``dTSP(s_j)``.

The textbook formulation recomputes all three from scratch on every
iteration — ``cov @ rem`` plus an ``(m, n)`` masked row-max plus an
``(m, |tour|)`` insertion scan — which is O(m·n + m·|tour|) *per selection*
and O(m²·n·K) over a run.  At paper scale (|V| = 500, δ = 5 ⇒ m ≈ 40 000
candidates, DESIGN.md §S3) that is hours per run.

:class:`PlannerKernel` makes each selection O(overlap) instead:

* **Sparse coverage index** — a CSR site→sensor index and its sensor→site
  transpose (:class:`repro.geometry.coverage.SparseCoverage`), built once
  from ``HoveringSites.cov_matrix``.
* **Dirty-set residual invalidation** — when a selection drains sensors,
  only the sites covering those sensors (found through the transpose) are
  rescored, via segment ``reduceat`` reductions over the CSR rows; no
  ``(m, n)`` temporary is ever materialised.  Per-site ``t'`` maxima are
  maintained the same way.
* **Cached cheapest-insertion deltas** — each candidate remembers its best
  tour edge.  An insertion destroys exactly one edge and creates two, so
  only candidates whose recorded best edge was destroyed are rescanned
  (O(|tour|) each); everyone else is updated against the two new edges in
  O(1).  A 2-opt polish reorders the tour wholesale and triggers a full
  flush.

Every result is **bitwise-identical** to the dense formulation's on the
planners' seeded test instances (tie-breaking order preserved: full
rescans use the same first-minimum ``argmin`` semantics, and the O(1)
update breaks exact ties toward the lower edge index exactly like a fresh
``argmin`` would).  The full-recompute formulation lives on in the test
suite as the equivalence oracle.

The kernel also keeps lightweight perf counters (selections, sites
rescored, deltas recomputed, wall-clock per phase) in a
:class:`repro.obs.metrics.MetricsRegistry`; planners surface the snapshot
as ``CollectionTour.meta["perf"]`` so figure runners and benches report
the work actually done.  The rescore/partial/insertion phases also emit
``kernel.*`` spans on the active :mod:`repro.obs` tracer — free when
tracing is disabled, a flame chart when it is not.
"""

from __future__ import annotations

# repro: hot-path
# (The whole module is checked by the hot-path-purity rule: no dense
# (m, n) temporaries may be allocated here.)

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.hovering import HoveringSites
from repro.geometry.coverage import SparseCoverage
from repro.geometry.distance import cross_distances
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import span
from repro.utils.errors import InvalidParameterError


def _segment_reduce(vals: np.ndarray, starts: np.ndarray,
                    lengths: np.ndarray, ufunc) -> np.ndarray:
    """Per-segment ``ufunc`` reduction with empty segments mapped to 0.0."""
    out = np.zeros(len(lengths))
    if len(vals) == 0 or len(lengths) == 0:
        return out
    safe = np.minimum(starts, len(vals) - 1)
    out[:] = ufunc.reduceat(vals, safe)
    out[lengths == 0] = 0.0
    return out


class PlannerKernel:
    """Shared incremental state for the greedy construction loops.

    Parameters
    ----------
    sites:
        The candidate hovering locations (coverage matrix, points, network).
    energy, radio:
        Problem models; the kernel only needs ``radio.bandwidth`` but keeps
        both for provenance.
    volume_tol:
        Residual volumes below this many MB are snapped to zero after a
        partial drain (Algorithm 3's dust threshold; 0 disables).

    Notes
    -----
    The kernel owns the working tour (``tour`` — node ids into
    ``points_all``, depot = 0) and the residual volumes (``rem``); planners
    stay thin policy layers deciding *which* candidate to take, while all
    state bookkeeping funnels through :meth:`insert`, :meth:`set_tour`,
    :meth:`drain_full`, and :meth:`drain_partial`.
    """

    def __init__(self, sites: HoveringSites, energy, radio, *,
                 volume_tol: float = 0.0) -> None:
        self.sites = sites
        self.energy = energy
        self.radio = radio
        self.volume_tol = float(volume_tol)
        self.m = sites.n_sites
        self.n = sites.network.n_nodes
        self.bandwidth = radio.bandwidth
        self.points_all = np.vstack([sites.network.depot[None, :],
                                     sites.points])
        self.csr = SparseCoverage.from_matrix(sites.cov_matrix)

        # --- residual state -------------------------------------------- #
        self.rem = sites.network.volumes.astype(float).copy()
        self.covered = np.zeros(self.n, dtype=bool)
        self._p_res = np.zeros(self.m)
        self._t_res = np.zeros(self.m)
        self._dirty_sensors = np.ones(self.n, dtype=bool)

        # --- partial-award table (Algorithm 3) ------------------------- #
        self._fractions: Optional[np.ndarray] = None
        self._tau: Optional[np.ndarray] = None
        self._p_partial: Optional[np.ndarray] = None
        self._partial_dirty = np.ones(self.m, dtype=bool)

        # --- tour + cheapest-insertion cache --------------------------- #
        self.tour: List[int] = [0]
        self.in_tour = np.zeros(self.m + 1, dtype=bool)
        self.in_tour[0] = True
        self._ins_deltas = np.zeros(self.m)
        self._ins_edges = np.zeros(self.m, dtype=np.int64)
        self._ins_stale = True

        # Work counters + per-phase timers, pre-registered so the
        # ``meta["perf"]`` snapshot always carries the full key set.
        self.metrics = MetricsRegistry()
        for name in ("insertions", "drains", "tour_flushes",
                     "sites_rescored", "deltas_recomputed"):
            self.metrics.counter(name)
        for name in ("rescore", "insertion", "partial"):
            self.metrics.timer(name)

    # ------------------------------------------------------------------ #
    # Residual awards P' and hover times t'  (Eqs. 11-12)
    # ------------------------------------------------------------------ #
    def residual_scores(self) -> Tuple[np.ndarray, np.ndarray]:
        """Current ``(P', t')`` for every candidate (cached; do not mutate).

        Cached arrays, refreshed only for candidates overlapping sensors
        drained since the last call.
        """
        with self.metrics.time("rescore"), span("kernel.rescore"):
            self._flush_residuals()
        return self._p_res, self._t_res

    def _flush_residuals(self) -> None:
        """Rescore exactly the sites overlapping drained sensors."""
        if not self._dirty_sensors.any():
            return
        dirty = self.csr.sites_covering(np.flatnonzero(self._dirty_sensors))
        self._dirty_sensors[:] = False
        if len(dirty) == 0:
            return
        idxs, starts, lengths = self.csr.gather(dirty)
        vals = self.rem[idxs]
        self._p_res[dirty] = _segment_reduce(vals, starts, lengths, np.add)
        self._t_res[dirty] = _segment_reduce(vals, starts, lengths,
                                             np.maximum) / self.bandwidth
        self._partial_dirty[dirty] = True
        self.metrics.counter("sites_rescored").inc(len(dirty))

    def partial_scores(self, fractions: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Algorithm 3's ``(t', tau, partial awards)`` over K partitions.

        ``tau[j, k] = t'(s_j) * fractions[k]`` and ``p_partial[j, k]`` is
        Eq. 4 evaluated on residual volumes.  Rows are recomputed only for
        candidates whose residuals changed.
        """
        fractions = np.asarray(fractions, dtype=float)
        if self._fractions is None or not np.array_equal(self._fractions,
                                                         fractions):
            self._fractions = fractions.copy()
            self._partial_dirty[:] = True
            # (m, K) caches, K small and allocated once per fractions change.
            # repro: allow[hot-path-purity] -- (m, K) cache, not (m, n)
            self._tau = np.zeros((self.m, len(fractions)))
            # repro: allow[hot-path-purity] -- (m, K) cache, not (m, n)
            self._p_partial = np.zeros((self.m, len(fractions)))
        with self.metrics.time("rescore"), span("kernel.rescore"):
            self._flush_residuals()
        with self.metrics.time("partial"), span("kernel.partial"):
            self._flush_partial()
        assert self._tau is not None and self._p_partial is not None
        return self._t_res, self._tau, self._p_partial

    def _flush_partial(self) -> None:
        """Recompute the partial-award rows of dirty sites only."""
        if not self._partial_dirty.any():
            return
        assert (self._fractions is not None and self._tau is not None
                and self._p_partial is not None)
        dirty = np.flatnonzero(self._partial_dirty)
        self._partial_dirty[:] = False
        # repro: allow[hot-path-purity] -- (|dirty|, K) rows, not (m, n)
        tau_d = self._t_res[dirty][:, None] * self._fractions[None, :]
        self._tau[dirty] = tau_d
        idxs, starts, lengths = self.csr.gather(dirty)
        vals = self.rem[idxs]
        for k in range(len(self._fractions)):
            caps = np.repeat(self.bandwidth * tau_d[:, k], lengths)
            self._p_partial[dirty, k] = _segment_reduce(
                np.minimum(vals, caps), starts, lengths, np.add)

    # ------------------------------------------------------------------ #
    # Drains (selection side effects on residual volumes)
    # ------------------------------------------------------------------ #
    def drain_full(self, site: int) -> None:
        """Full collection at *site*: covered sensors drop to zero (DCM)."""
        idx = self.csr.sensors_of(site)
        changed = idx[self.rem[idx] > 0.0]
        self.rem[idx] = 0.0
        self.covered[idx] = True
        self._dirty_sensors[changed] = True
        self.metrics.counter("drains").inc()

    def drain_partial(self, site: int, duration: float) -> None:
        """OFDMA drain at *site* for *duration* seconds (PDCM).

        Each covered sensor uploads ``min(rem, B * duration)`` on its own
        channel; residuals below ``volume_tol`` are snapped to zero
        everywhere, mirroring the legacy loop's dust cleanup.
        """
        idx = self.csr.sensors_of(site)
        vals = self.rem[idx]
        uploaded = np.minimum(vals, self.bandwidth * duration)
        self.rem[idx] = vals - uploaded
        changed = np.zeros(self.n, dtype=bool)
        changed[idx[uploaded > 0.0]] = True
        if self.volume_tol > 0.0:
            tiny = (self.rem > 0.0) & (self.rem < self.volume_tol)
            self.rem[tiny] = 0.0
            changed |= tiny
        self.covered[idx] = True
        self._dirty_sensors |= changed
        self.metrics.counter("drains").inc()

    # ------------------------------------------------------------------ #
    # Cheapest-insertion delta cache
    # ------------------------------------------------------------------ #
    def insertion_state(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(deltas, positions)`` of every candidate vs the current tour.

        ``positions[j]`` is the tour index *before which* site ``j`` would
        be inserted.  Returns copies — safe for policy layers to clamp or
        mask.  Served from the incrementally-maintained cache.
        """
        with self.metrics.time("insertion"), span("kernel.insertion"):
            if self._ins_stale:
                self._flush_insertion()
        return self._ins_deltas.copy(), (self._ins_edges + 1).astype(int)

    def _flush_insertion(self) -> None:
        """Full cheapest-insertion scan (legacy `_insertion_deltas`)."""
        pts = self.sites.points
        tour_pts = self.points_all[self.tour]
        k = len(self.tour)
        if k == 1:
            self._ins_deltas = 2.0 * cross_distances(pts, tour_pts)[:, 0]
            self._ins_edges = np.zeros(self.m, dtype=np.int64)
        else:
            d_site_tour = cross_distances(pts, tour_pts)
            nxt = np.roll(np.arange(k), -1)
            edge_len = np.linalg.norm(tour_pts[nxt] - tour_pts, axis=1)
            cand = d_site_tour + d_site_tour[:, nxt] - edge_len[None, :]
            best = np.argmin(cand, axis=1)
            self._ins_deltas = cand[np.arange(self.m), best]
            self._ins_edges = best.astype(np.int64)
        self._ins_stale = False
        self.metrics.counter("deltas_recomputed").inc(self.m)

    def insert(self, site: int) -> int:
        """Insert candidate *site* at its cached best position.

        Updates the tour and repairs the delta cache in place: every
        candidate is checked against the two edges the insertion created
        (O(1), exact-tie broken toward the lower edge index like a fresh
        ``argmin``), and only candidates whose recorded best edge was
        destroyed are fully rescanned.

        Returns the insertion position (for the caller's bookkeeping).
        """
        if self._ins_stale:
            self._flush_insertion()
        node = site + 1
        k_old = len(self.tour)
        e = int(self._ins_edges[site])
        pos = e + 1
        self.metrics.counter("insertions").inc()
        if k_old == 1:
            self.tour.insert(1, node)
            self.in_tour[node] = True
            self._ins_stale = True
            return 1
        a = self.tour[e]
        b = self.tour[(e + 1) % k_old]
        self.tour.insert(pos, node)
        self.in_tour[node] = True

        with self.metrics.time("insertion"), span("kernel.insertion"):
            deltas, edges = self._ins_deltas, self._ins_edges
            dead = edges == e
            edges[edges > e] += 1
            # O(1) per candidate: compare against the two edges just created.
            pa, pn, pb = (self.points_all[a], self.points_all[node],
                          self.points_all[b])
            d3 = cross_distances(self.sites.points, np.array([pa, pn, pb]))
            lens = np.linalg.norm(np.array([pn - pa, pb - pn]), axis=1)
            for new_edge, cand in ((e, d3[:, 0] + d3[:, 1] - lens[0]),
                                   (e + 1, d3[:, 1] + d3[:, 2] - lens[1])):
                better = (cand < deltas) | ((cand == deltas)
                                            & (new_edge < edges))
                deltas[better] = cand[better]
                edges[better] = new_edge
            # Full rescan only where the recorded best edge was destroyed.
            dead_idx = np.flatnonzero(dead)
            if len(dead_idx):
                tour_pts = self.points_all[self.tour]
                k = len(self.tour)
                d_site_tour = cross_distances(self.sites.points[dead_idx],
                                              tour_pts)
                nxt = np.roll(np.arange(k), -1)
                edge_len = np.linalg.norm(tour_pts[nxt] - tour_pts, axis=1)
                cand = d_site_tour + d_site_tour[:, nxt] - edge_len[None, :]
                best = np.argmin(cand, axis=1)
                deltas[dead_idx] = cand[np.arange(len(dead_idx)), best]
                edges[dead_idx] = best
                self.metrics.counter("deltas_recomputed").inc(len(dead_idx))
        return pos

    def set_tour(self, order) -> None:
        """Replace the tour wholesale (e.g. after a 2-opt polish).

        Flushes the insertion cache — a reorder invalidates every cached
        best edge at once, which is why the polish pass is the one place
        the kernel pays a full O(m·|tour|) rescan.
        """
        self.tour = [int(v) for v in order]
        if 0 not in self.tour:
            raise InvalidParameterError("tour must contain the depot (0)")
        self.in_tour[:] = False
        self.in_tour[np.array(self.tour, dtype=int)] = True
        self._ins_stale = True
        self.metrics.counter("tour_flushes").inc()

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #
    @property
    def counters(self) -> Dict[str, int]:
        """Integer work-counter snapshot (compat view of :attr:`metrics`)."""
        return {k: int(v) for k, v in self.metrics.counter_values().items()}

    @property
    def timers(self) -> Dict[str, float]:
        """Per-phase wall-clock snapshot (compat view of :attr:`metrics`)."""
        return self.metrics.timer_seconds()

    def perf(self) -> Dict[str, object]:
        """Perf-counter snapshot for ``CollectionTour.meta["perf"]``."""
        snap: Dict[str, object] = {"engine": "kernel"}
        snap.update(self.counters)
        snap["seconds"] = {k: round(v, 6) for k, v in self.timers.items()}
        return snap


class PruneCache:
    """Incremental removal-ratio state for the Christofides-prune baseline.

    The baseline repeatedly removes the tour node losing the least data
    per joule saved.  The legacy loop recomputed every node's splice
    saving with a Python-level pass per removal — O(k²) scalar work.  A
    removal only changes the splice savings of the removed node's two
    neighbours, so this cache recomputes exactly those and answers the
    next argmin over a flat array.

    Tie-breaking matches the legacy scan: first index attaining the
    minimum finite ratio; nodes with no real saving (``saved <= 1e-12``)
    are never selected.
    """

    def __init__(self, dist: np.ndarray, volumes: np.ndarray,
                 hover_times: np.ndarray, eta_h: float,
                 etat_m: float) -> None:
        self.dist = dist
        self.volumes = volumes
        self.hover_times = hover_times
        self.eta_h = eta_h
        self.etat_m = etat_m
        self.tour: List[int] = []
        self._ratios = np.empty(0)
        self.rescored = 0

    def set_tour(self, tour) -> None:
        """Initialise ratios for every position of *tour*."""
        self.tour = [int(v) for v in tour]
        k = len(self.tour)
        self._ratios = np.array([self._ratio_at(i) for i in range(k)]) \
            if k else np.empty(0)
        self.rescored += k

    def _ratio_at(self, i: int) -> float:
        """Data lost per joule saved by splicing out position *i*."""
        tour = self.tour
        v = tour[i]
        if v == 0:                       # the depot is never removable
            return np.inf
        prev_node = tour[i - 1]
        next_node = tour[(i + 1) % len(tour)]
        saved_travel = (self.dist[prev_node, v] + self.dist[v, next_node]
                        - self.dist[prev_node, next_node])
        saved = (self.hover_times[v - 1] * self.eta_h
                 + saved_travel * self.etat_m)
        return self.volumes[v - 1] / saved if saved > 1e-12 else np.inf

    def best(self) -> int:
        """Position of the cheapest removal, or -1 if none has real saving."""
        if len(self._ratios) == 0:
            return -1
        i = int(np.argmin(self._ratios))
        return i if np.isfinite(self._ratios[i]) else -1

    def remove(self, i: int) -> int:
        """Remove position *i*; rescore only its two splice neighbours."""
        node = self.tour.pop(i)
        self._ratios = np.delete(self._ratios, i)
        k = len(self.tour)
        if k > 1:
            for j in {(i - 1) % k, i % k}:
                self._ratios[j] = self._ratio_at(j)
                self.rescored += 1
        return node


__all__ = ["PlannerKernel", "PruneCache"]
