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
  per :class:`~repro.core.hovering.HoveringSites` (``sites.csr``) and
  shared by every kernel over those sites.
* **Dirty-set residual invalidation** — when a selection drains sensors,
  only the sites covering those sensors (found through the transpose) are
  rescored, via segment ``reduceat`` reductions over the CSR rows; no
  ``(m, n)`` temporary is ever materialised.  Per-site ``t'`` maxima are
  maintained the same way.  Algorithm 3's flush is fused: one gather of
  the dirty rows yields ``P'``, ``t'`` and all K partial-award columns,
  and :attr:`PlannerKernel.changed_rows` tells the planner which rows of
  its ratio table to recompute.
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

The kernel also counts its work (insertions, drains, sites rescored,
deltas recomputed) in the plain-int :attr:`PlannerKernel.counters`;
planners surface them as ``CollectionTour.meta["perf"]`` so figure
runners and benches report the work actually done.  Time per phase is
measured only by the ``kernel.rescore`` (Algorithm 2) /
``kernel.partial`` (Algorithm 3) / ``kernel.insertion`` spans on the
active :mod:`repro.obs` tracer — free when tracing is disabled, a flame
chart when it is not.
"""

from __future__ import annotations

# repro: hot-path
# (The whole module is checked by the hot-path-purity rule: no dense
# (m, n) temporaries may be allocated here.)

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.hovering import HoveringSites
from repro.geometry.distance import cross_distances
from repro.obs.tracer import span
from repro.tsp.construct import repair_insertion_cache
from repro.utils.errors import InvalidParameterError


def _segment_reduce(vals: np.ndarray, starts: np.ndarray,
                    lengths: np.ndarray, ufunc) -> np.ndarray:
    """Per-segment ``ufunc`` reduction along the last axis of *vals*.

    Empty segments map to 0.0.  A 2-D ``(r, nnz)`` input reduces every
    row's segments in the same sequential order as the 1-D call on that
    row alone, so each output row is bitwise the 1-D result.
    """
    if vals.shape[-1] == 0 or len(lengths) == 0:
        return np.zeros(vals.shape[:-1] + (len(lengths),))
    out = ufunc.reduceat(vals, np.minimum(starts, vals.shape[-1] - 1),
                         axis=-1)
    out[..., lengths == 0] = 0.0
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

    ``changed_rows`` reports the rows of the ``(t', tau, partial awards)``
    table the last :meth:`partial_scores` call recomputed, as sorted site
    indices; ``None`` means every row (the first call, a new
    ``fractions``, or a kernel that does not track rows).
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
        self.csr = sites.csr

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
        self.changed_rows: Optional[np.ndarray] = None

        # --- tour + cheapest-insertion cache --------------------------- #
        self.tour: List[int] = [0]
        self.in_tour = np.zeros(self.m + 1, dtype=bool)
        self.in_tour[0] = True
        self._ins_deltas = np.zeros(self.m)
        self._ins_edges = np.zeros(self.m, dtype=np.int64)
        self._ins_stale = True

        # Work counters: the ``meta["perf"]`` snapshot always carries
        # the full key set.
        self.counters: Dict[str, int] = {
            "insertions": 0, "drains": 0, "tour_flushes": 0,
            "sites_rescored": 0, "deltas_recomputed": 0}

    # ------------------------------------------------------------------ #
    # Residual awards P' and hover times t'  (Eqs. 11-12)
    # ------------------------------------------------------------------ #
    def residual_scores(self) -> Tuple[np.ndarray, np.ndarray]:
        """Current ``(P', t')`` for every candidate (cached; do not mutate).

        Cached arrays, refreshed only for candidates overlapping sensors
        drained since the last call.
        """
        with span("kernel.rescore"):
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
        self.counters["sites_rescored"] += len(dirty)

    def partial_scores(self, fractions: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Algorithm 3's ``(t', tau, partial awards)`` over K partitions.

        ``tau[j, k] = t'(s_j) * fractions[k]`` and ``p_partial[j, k]`` is
        Eq. 4 evaluated on residual volumes.  Rows are recomputed only for
        candidates whose residuals changed; :attr:`changed_rows` names
        them.
        """
        fractions = np.asarray(fractions, dtype=float)
        fresh = self._fractions is None or not np.array_equal(
            self._fractions, fractions)
        if fresh:
            self._fractions = fractions.copy()
            self._partial_dirty[:] = True
            # (m, K) caches, K small and allocated once per fractions change.
            # repro: allow[hot-path-purity] -- (m, K) cache, not (m, n)
            self._tau = np.zeros((self.m, len(fractions)))
            # repro: allow[hot-path-purity] -- (m, K) cache, not (m, n)
            self._p_partial = np.zeros((self.m, len(fractions)))
        with span("kernel.partial"):
            rows = self._flush_partial()
        self.changed_rows = None if fresh else rows
        assert self._tau is not None and self._p_partial is not None
        return self._t_res, self._tau, self._p_partial

    def _flush_partial(self) -> np.ndarray:
        """Recompute ``P'``, ``t'`` and the (site, k) rows of dirty sites.

        One fused pass: the sites overlapping drained sensors join the
        pending dirty rows, the rows are gathered once, and all K
        partial-award columns come from that gather as one
        ``(K, nnz)`` block.  Returns the recomputed rows.
        """
        assert (self._fractions is not None and self._tau is not None
                and self._p_partial is not None)
        sensors = np.flatnonzero(self._dirty_sensors)
        if len(sensors):
            self._dirty_sensors[:] = False
            touched = self.csr.sites_covering(sensors)
            self._partial_dirty[touched] = True
            self.counters["sites_rescored"] += len(touched)
        rows = np.flatnonzero(self._partial_dirty)
        if len(rows) == 0:
            return rows
        self._partial_dirty[:] = False
        idxs, starts, lengths = self.csr.gather(rows)
        vals = self.rem[idxs]
        self._p_res[rows] = _segment_reduce(vals, starts, lengths, np.add)
        t_rows = _segment_reduce(vals, starts, lengths,
                                 np.maximum) / self.bandwidth
        self._t_res[rows] = t_rows
        # repro: allow[hot-path-purity] -- (|rows|, K) block, not (m, n)
        tau = t_rows[:, None] * self._fractions[None, :]
        self._tau[rows] = tau
        caps = np.repeat(self.bandwidth * tau.T, lengths, axis=1)
        self._p_partial[rows] = _segment_reduce(
            np.minimum(vals, caps), starts, lengths, np.add).T
        return rows

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
        self.counters["drains"] += 1

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
        self.counters["drains"] += 1

    # ------------------------------------------------------------------ #
    # Cheapest-insertion delta cache
    # ------------------------------------------------------------------ #
    def insertion_state(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(deltas, positions)`` of every candidate vs the current tour.

        ``positions[j]`` is the tour index *before which* site ``j`` would
        be inserted.  Returns copies — safe for policy layers to clamp or
        mask.  Served from the incrementally-maintained cache.
        """
        with span("kernel.insertion"):
            if self._ins_stale:
                self._flush_insertion()
        return self._ins_deltas.copy(), (self._ins_edges + 1).astype(int)

    def _flush_insertion(self) -> None:
        """Full cheapest-insertion scan of every candidate."""
        self._scan_insertion(np.arange(self.m))
        self._ins_stale = False

    def _scan_insertion(self, idx: np.ndarray) -> None:
        """Scan candidates *idx* against every edge of the current tour.

        Caches each one's cheapest insertion delta and the first edge
        attaining it (first-minimum ``argmin``).
        """
        tour_pts = self.points_all[self.tour]
        nxt = np.roll(np.arange(len(self.tour)), -1)
        edge_len = np.linalg.norm(tour_pts[nxt] - tour_pts, axis=1)
        d_site_tour = cross_distances(self.sites.points[idx], tour_pts)
        cand = d_site_tour + d_site_tour[:, nxt] - edge_len[None, :]
        best = np.argmin(cand, axis=1)
        self._ins_deltas[idx] = cand[np.arange(len(idx)), best]
        self._ins_edges[idx] = best
        self.counters["deltas_recomputed"] += len(idx)

    def insert(self, site: int) -> int:
        """Insert candidate *site* at its cached best position.

        Updates the tour and repairs the delta cache in place with
        :func:`~repro.tsp.construct.repair_insertion_cache`: every
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
        self.counters["insertions"] += 1
        if k_old == 1:
            self.tour.insert(1, node)
            self.in_tour[node] = True
            self._ins_stale = True
            return 1
        a = self.tour[e]
        b = self.tour[(e + 1) % k_old]
        self.tour.insert(pos, node)
        self.in_tour[node] = True

        with span("kernel.insertion"):
            deltas, edges = self._ins_deltas, self._ins_edges
            # O(1) per candidate: compare against the two edges just created.
            pa, pn, pb = (self.points_all[a], self.points_all[node],
                          self.points_all[b])
            d3 = cross_distances(self.sites.points, np.array([pa, pn, pb]))
            lens = np.linalg.norm(np.array([pn - pa, pb - pn]), axis=1)
            dead_idx = np.flatnonzero(repair_insertion_cache(
                deltas, edges, e, (d3[:, 0] + d3[:, 1] - lens[0],
                                   d3[:, 1] + d3[:, 2] - lens[1])))
            # Full rescan only where the recorded best edge was destroyed.
            if len(dead_idx):
                self._scan_insertion(dead_idx)
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
        self.counters["tour_flushes"] += 1

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #
    def perf(self) -> Dict[str, object]:
        """Work-counter snapshot for ``CollectionTour.meta["perf"]``."""
        snap: Dict[str, object] = {"engine": "kernel"}
        snap.update(self.counters)
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
