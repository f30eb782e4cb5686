"""Vectorized batch planner for capacity columns (``batch_columns=True``).

The paper's figures are *columns* of closely related plans: one network
instance planned at B parameter variants (Fig. 5's capacity sweep, the
related work's denser capacity/rate grids).  PR 1 made a single plan
O(overlap) per selection, but every cell of a column still pays the full
Python interpreter overhead per greedy round — one round of numpy
dispatches, span bookkeeping, and loop control *per cell*.

:class:`BatchPlannerKernel` plans the whole column as a single numpy
program.  The per-variant residual-award (Eq. 11) and residual-hover-time
(Eq. 12) state of :class:`~repro.core.kernel.PlannerKernel` is stacked
into ``(B, ·)`` arrays over one shared
:class:`~repro.geometry.coverage.SparseCoverage` CSR:

* **Union dirty-set rescoring** — each greedy round rescores the union of
  every variant's dirty sites with one batched segment-``reduceat`` over
  ``(B, nnz)`` gathered residuals.  Rescoring a site that is clean for
  some variant recomputes exactly the value its cache already holds
  (``reduceat`` is a deterministic sequential reduction over identical
  inputs), so the union rescore is bitwise-free.
* **Batched cheapest-insertion cache** — per-variant deltas/best-edges in
  ``(B, m)`` arrays, repaired after each round's insertions with the same
  operation order as :meth:`PlannerKernel.insert`: dead-edge detection
  before the edge-index shift, two sequential new-edge passes with the
  identical ``(cand < deltas) | ((cand == deltas) & (new_edge < edges))``
  tie-break toward the lower edge index, then per-variant rescans of the
  candidates whose recorded best edge was destroyed.
* **Energy masking** — variants leave the active set exactly where their
  sequential loop would ``break`` (no eligible candidate, nothing
  feasible, or the iteration limit); finished variants simply stop
  receiving updates while the rest of the column keeps planning.
* **Shared distance-row cache** — every tour point is drawn from the
  fixed ``points_all`` set, so each site-to-node distance row is
  computed once per column and reused across variants and rounds as a
  contiguous gather (``cross_distances`` is per-pair independent, so a
  cached row is bitwise-equal to a fresh scan); insertion repairs,
  flushes, and dead-edge rescans all become memory-bound instead of
  recomputing Euclidean distances.

Every per-variant result — tour, sojourns, collected volumes, iteration
count, work counters — is **bitwise-identical** to planning that variant
alone with :func:`~repro.core.algorithm2.plan_algorithm2` /
:func:`~repro.core.algorithm3.plan_algorithm3`: all elementwise energy
and score arithmetic broadcasts the identical float operations, and the
per-row ``argmax``/``argmin`` keep the sequential first-extremum
tie-breaking.  ``tests/test_core_batch.py`` pins the equivalence across
seeded scenarios, column groupings, and ``jobs`` settings.

The batch kernel keeps *grouping-invariant* per-variant counters
(insertions, drains, tour flushes, deltas recomputed) for
``CollectionTour.meta["perf"]``; union-rescore work depends on the
column composition, so it is not counted.  Time per phase is measured
only by the ``batch.round`` and ``kernel.batch.*`` spans.
"""

from __future__ import annotations

# repro: hot-path
# (The whole module is checked by the hot-path-purity rule: the batch
# state is (B, n)/(B, m) per-variant rows — never a dense (m, n) or
# (B·m, n) temporary.  Legitimate (B, ·) allocations are annotated.)

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.algorithm2 import _DENOM_EPS, SCORING_POLICIES, _score
from repro.core.hovering import HoveringSites, build_hovering_sites
from repro.core.reduce import (ReducedSites, attach_reduction_meta,
                               reduce_sites, resolve_reduction)
from repro.core.tour import CollectionTour
from repro.energy.model import EnergyModel
from repro.geometry.coverage import SparseCoverage
from repro.geometry.distance import cross_distances, pairwise_distances
from repro.network.sensor_network import SensorNetwork
from repro.obs.tracer import span
from repro.radio.link import RadioModel
from repro.tsp.improve import two_opt
from repro.tsp.length import tour_length_matrix
from repro.utils.errors import InvalidParameterError
from repro.utils.validation import check_integer

#: Algorithm 3's dust threshold (kept in sync with repro.core.algorithm3).
_VOLUME_TOL = 1e-9

#: Element budget for one insertion-flush distance block — bounds the
#: transient ``(m, rows·|tour|)`` distance matrix to ~32 MB of float64.
_FLUSH_CHUNK_ELEMS = 4_000_000


def _segment_reduce_rows(vals: np.ndarray, starts: np.ndarray,
                         lengths: np.ndarray, ufunc) -> np.ndarray:
    """Row-batched per-segment ``ufunc`` reduction, empty segments -> 0.0.

    The ``(B, nnz)`` generalisation of ``kernel._segment_reduce``:
    ``reduceat(axis=1)`` reduces every row's segments with the same
    sequential order as the 1-D call, so each row is bitwise-identical
    to reducing that row alone.
    """
    # repro: allow[hot-path-purity] -- (B, |dirty|) rescore rows, not (m, n)
    out = np.zeros((vals.shape[0], len(lengths)))
    if vals.shape[1] == 0 or len(lengths) == 0:
        return out
    safe = np.minimum(starts, vals.shape[1] - 1)
    out[:] = ufunc.reduceat(vals, safe, axis=1)
    out[:, lengths == 0] = 0.0
    return out


class BatchPlannerKernel:
    """Stacked per-variant planner state for one sweep column.

    Parameters
    ----------
    sites:
        The shared candidate hovering locations (one instance, one δ).
    energies:
        One :class:`EnergyModel` per variant (B = ``len(energies)``).
        All variants must share the energy *rates* (hover power and J/m
        travel rate) — the capacity is the batched axis, exactly like the
        artifact cache's auxiliary-graph key.
    radio:
        Shared radio model (the kernel uses ``radio.bandwidth``).
    volume_tol:
        Algorithm 3's dust threshold (0 disables), applied per variant
        after partial drains exactly like ``PlannerKernel``.

    Notes
    -----
    The batch kernel is the sparse ``PlannerKernel`` with a leading
    variant axis: ``rem``/``covered`` are ``(B, n)``, the residual and
    insertion caches ``(B, m)``, and each variant owns its tour.  All
    mutating operations take explicit variant-row arguments so the greedy
    drivers can mask exhausted variants out.
    """

    def __init__(self, sites: HoveringSites,
                 energies: Sequence[EnergyModel], radio: RadioModel, *,
                 volume_tol: float = 0.0) -> None:
        if len(energies) == 0:
            raise InvalidParameterError(
                "batch planning needs at least one energy variant")
        base = energies[0]
        for other in energies[1:]:
            if (other.hover_power != base.hover_power
                    or other.travel_cost_per_meter
                    != base.travel_cost_per_meter):
                raise InvalidParameterError(
                    "batch variants must share energy rates (hover power "
                    "and J/m travel); only the capacity may vary per "
                    "variant")
        self.sites = sites
        self.energies = list(energies)
        self.radio = radio
        self.volume_tol = float(volume_tol)
        self.B = len(energies)
        self.m = sites.n_sites
        self.n = sites.network.n_nodes
        self.bandwidth = radio.bandwidth
        self.eta_h = base.hover_power
        self.etat_m = base.travel_cost_per_meter
        self.capacities = np.array([e.capacity for e in energies],
                                   dtype=float)
        self.points_all = np.vstack([sites.network.depot[None, :],
                                     sites.points])
        self.csr = SparseCoverage.from_matrix(sites.cov_matrix)

        B, m, n = self.B, self.m, self.n
        # --- residual state (one PlannerKernel row per variant) -------- #
        # repro: allow[hot-path-purity] -- (B, n) variant state, not (m, n)
        self.rem = np.repeat(
            sites.network.volumes.astype(float)[None, :], B, axis=0)
        # repro: allow[hot-path-purity] -- (B, n) variant state, not (m, n)
        self.covered = np.zeros((B, n), dtype=bool)
        # repro: allow[hot-path-purity] -- (B, m) variant state, not (m, n)
        self._p_res = np.zeros((B, m))
        # repro: allow[hot-path-purity] -- (B, m) variant state, not (m, n)
        self._t_res = np.zeros((B, m))
        # repro: allow[hot-path-purity] -- (B, n) variant state, not (m, n)
        self._dirty_sensors = np.ones((B, n), dtype=bool)

        # --- partial-award table (Algorithm 3) ------------------------- #
        self._fractions: Optional[np.ndarray] = None
        self._tau: Optional[np.ndarray] = None
        self._p_partial: Optional[np.ndarray] = None
        # repro: allow[hot-path-purity] -- (B, m) variant state, not (m, n)
        self._partial_dirty = np.ones((B, m), dtype=bool)

        # --- tours + cheapest-insertion caches ------------------------- #
        self.tours: List[List[int]] = [[0] for _ in range(B)]
        # repro: allow[hot-path-purity] -- (B, m+1) variant state, not (m, n)
        self.in_tour = np.zeros((B, m + 1), dtype=bool)
        self.in_tour[:, 0] = True
        # repro: allow[hot-path-purity] -- (B, m) variant state, not (m, n)
        self._ins_deltas = np.zeros((B, m))
        # repro: allow[hot-path-purity] -- (B, m) variant state, not (m, n)
        self._ins_edges = np.zeros((B, m), dtype=np.int64)
        self._ins_stale = np.ones(B, dtype=bool)

        # Lazy site-to-node distance rows.  Every tour point is drawn
        # from the fixed ``points_all`` set, so ``d(site, node)`` is
        # computed once per column run and shared across variants and
        # rounds as a pure gather — ``cross_distances`` is per-pair
        # independent, which keeps every reuse bitwise-identical to a
        # fresh scan.  Row-major (one contiguous (m,) row per visited
        # node) so repairs, flushes, and dead-edge rescans all read
        # contiguous memory.  Grown by doubling; (|visited|, m) total.
        # repro: allow[hot-path-purity] -- (visited, m) cache rows
        self._dist_rows = np.zeros((0, m))
        self._dist_len = 0
        self._row_of: Dict[int, int] = {}
        # Per-variant cache-row list mirroring ``tours[b]``
        # (``_tour_rows[b][i] == _row_of[tours[b][i]]``); rebuilt by the
        # insertion flush, patched in step with each tour insert.
        self._tour_rows: List[List[int]] = [[] for _ in range(B)]

        # Grouping-invariant per-variant work counters (perf snapshots).
        self._insertions = np.zeros(B, dtype=np.int64)
        self._drains = np.zeros(B, dtype=np.int64)
        self._tour_flushes = np.zeros(B, dtype=np.int64)
        self._deltas_recomputed = np.zeros(B, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Residual awards P' and hover times t'  (Eqs. 11-12, stacked)
    # ------------------------------------------------------------------ #
    def residual_scores(self) -> Tuple[np.ndarray, np.ndarray]:
        """Current ``(P', t')`` rows for every variant (cached views)."""
        with span("kernel.batch.rescore"):
            self._flush_residuals()
        return self._p_res, self._t_res

    def _flush_residuals(self) -> None:
        """Rescore the union dirty set across all variants at once."""
        union = self._dirty_sensors.any(axis=0)
        if not union.any():
            return
        dirty = self.csr.sites_covering(np.flatnonzero(union))
        self._dirty_sensors[:] = False
        if len(dirty) == 0:
            return
        idxs, starts, lengths = self.csr.gather(dirty)
        vals = self.rem[:, idxs]
        self._p_res[:, dirty] = _segment_reduce_rows(vals, starts, lengths,
                                                     np.add)
        self._t_res[:, dirty] = _segment_reduce_rows(
            vals, starts, lengths, np.maximum) / self.bandwidth
        self._partial_dirty[:, dirty] = True

    def partial_scores(self, fractions: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Algorithm 3's ``(t', tau, partial awards)`` stacked per variant."""
        fractions = np.asarray(fractions, dtype=float)
        if self._fractions is None or not np.array_equal(self._fractions,
                                                         fractions):
            self._fractions = fractions.copy()
            self._partial_dirty[:] = True
            # repro: allow[hot-path-purity] -- (B, m, K) cache, not (m, n)
            self._tau = np.zeros((self.B, self.m, len(fractions)))
            # repro: allow[hot-path-purity] -- (B, m, K) cache, not (m, n)
            self._p_partial = np.zeros((self.B, self.m, len(fractions)))
        with span("kernel.batch.rescore"):
            self._flush_residuals()
        with span("kernel.batch.partial"):
            self._flush_partial()
        assert self._tau is not None and self._p_partial is not None
        return self._t_res, self._tau, self._p_partial

    def _flush_partial(self) -> None:
        """Recompute partial-award rows of the union dirty site set."""
        union = self._partial_dirty.any(axis=0)
        if not union.any():
            return
        assert (self._fractions is not None and self._tau is not None
                and self._p_partial is not None)
        dirty = np.flatnonzero(union)
        self._partial_dirty[:] = False
        tau_d = self._t_res[:, dirty, None] * self._fractions[None, None, :]
        self._tau[:, dirty, :] = tau_d
        idxs, starts, lengths = self.csr.gather(dirty)
        vals = self.rem[:, idxs]
        for k in range(len(self._fractions)):
            caps = np.repeat(self.bandwidth * tau_d[:, :, k], lengths,
                             axis=1)
            self._p_partial[:, dirty, k] = _segment_reduce_rows(
                np.minimum(vals, caps), starts, lengths, np.add)

    # ------------------------------------------------------------------ #
    # Drains (batched over the selected variant rows)
    # ------------------------------------------------------------------ #
    def drain_full_many(self, rows: np.ndarray,
                        sites_sel: np.ndarray) -> None:
        """Full collection per (variant row, selected site) pair (DCM)."""
        idxs, _starts, lengths = self.csr.gather(sites_sel)
        row_ids = np.repeat(rows, lengths)
        vals = self.rem[row_ids, idxs]
        changed = vals > 0.0
        self.rem[row_ids, idxs] = 0.0
        self.covered[row_ids, idxs] = True
        self._dirty_sensors[row_ids[changed], idxs[changed]] = True
        self._drains[rows] += 1

    def drain_partial_many(self, rows: np.ndarray, sites_sel: np.ndarray,
                           durations: np.ndarray) -> None:
        """OFDMA drains per (variant row, site, duration) triple (PDCM)."""
        idxs, _starts, lengths = self.csr.gather(sites_sel)
        row_ids = np.repeat(rows, lengths)
        vals = self.rem[row_ids, idxs]
        uploaded = np.minimum(vals, self.bandwidth * np.repeat(durations,
                                                               lengths))
        self.rem[row_ids, idxs] = vals - uploaded
        changed = uploaded > 0.0
        self._dirty_sensors[row_ids[changed], idxs[changed]] = True
        if self.volume_tol > 0.0:
            # Dust snap over the drained variants' whole residual rows,
            # mirroring PlannerKernel.drain_partial.
            sub = self.rem[rows]
            tiny = (sub > 0.0) & (sub < self.volume_tol)
            sub[tiny] = 0.0
            self.rem[rows] = sub
            self._dirty_sensors[rows] |= tiny
        self.covered[row_ids, idxs] = True
        self._drains[rows] += 1

    # ------------------------------------------------------------------ #
    # Batched cheapest-insertion delta cache
    # ------------------------------------------------------------------ #
    def insertion_state(self, active: np.ndarray) -> np.ndarray:
        """Per-variant cheapest-insertion deltas, flushing stale *active*
        rows first (inactive variants keep their stale caches — they will
        never be read again).  Returns the internal ``(B, m)`` array; the
        drivers treat it as read-only."""
        with span("kernel.batch.insertion"):
            stale = np.flatnonzero(active & self._ins_stale)
            if len(stale):
                self._flush_insertion_rows(stale)
        return self._ins_deltas

    def _node_rows(self, nodes: Sequence[int]) -> List[int]:
        """Distance-cache row indices for *nodes*, computing misses.

        Missing rows are filled with one ``cross_distances`` call over
        the batch of new points; swapping the argument order computes the
        row-major layout directly and is bitwise-equal to the transposed
        site-major scan (negating the coordinate diff is exact and
        squares to the identical float).
        """
        missing = [v for v in nodes if v not in self._row_of]
        if missing:
            uniq = list(dict.fromkeys(missing))
            need = self._dist_len + len(uniq)
            if need > self._dist_rows.shape[0]:
                # repro: allow[hot-path-purity] -- (visited, m) cache rows
                grown = np.zeros((max(2 * self._dist_rows.shape[0], need,
                                      16), self.m))
                grown[:self._dist_len] = self._dist_rows[:self._dist_len]
                self._dist_rows = grown
            new = cross_distances(self.points_all[np.array(uniq)],
                                  self.sites.points)
            self._dist_rows[self._dist_len:need] = new
            for i, v in enumerate(uniq):
                self._row_of[v] = self._dist_len + i
            self._dist_len = need
        return [self._row_of[v] for v in nodes]

    def _flush_insertion_rows(self, rows: np.ndarray) -> None:
        """Full cheapest-insertion rescan for the given variant rows.

        Rows are grouped by tour length and scanned as one stacked
        gather from the distance-row cache per group (chunked so the
        transient block stays bounded); each row's scan is elementwise
        identical to ``PlannerKernel._flush_insertion`` — the candidate
        block is laid out ``(rows, edges, sites)`` so the per-site
        ``argmin`` over the edge axis keeps the first-minimum tie-break
        toward the lower edge index.
        """
        by_len: Dict[int, List[int]] = {}
        for b in rows.tolist():
            by_len.setdefault(len(self.tours[b]), []).append(b)
        for k, group in by_len.items():
            if k == 1:
                # Depot-only tours are identical across variants: one scan.
                depot_row = self._node_rows([0])[0]
                d = 2.0 * self._dist_rows[depot_row]
                for b in group:
                    self._ins_deltas[b] = d
                    self._ins_edges[b] = 0
                    self._tour_rows[b] = [depot_row]
                continue
            grp = np.array(group, dtype=int)
            tours_arr = np.array([self.tours[b] for b in group], dtype=int)
            for b in group:
                self._tour_rows[b] = self._node_rows(self.tours[b])
            ridx = np.array([self._tour_rows[b] for b in group],
                            dtype=int)                          # (R, k)
            tp = self.points_all[tours_arr]                     # (R, k, 2)
            nxt = np.roll(np.arange(k), -1)
            step = max(1, _FLUSH_CHUNK_ELEMS // max(1, self.m * k))
            for c0 in range(0, len(grp), step):
                sub = grp[c0:c0 + step]
                tpc = tp[c0:c0 + step]
                rc = len(sub)
                d = self._dist_rows[ridx[c0:c0 + step].reshape(-1)]
                d = d.reshape(rc, k, self.m)                     # (Rc, k, m)
                edge_len = np.linalg.norm(tpc[:, nxt] - tpc, axis=2)
                cand = d + d[:, nxt] - edge_len[:, :, None]
                best = np.argmin(cand, axis=1)                   # (Rc, m)
                self._ins_deltas[sub] = np.take_along_axis(
                    cand, best[:, None, :], axis=1)[:, 0]
                self._ins_edges[sub] = best
        self._ins_stale[rows] = False
        self._deltas_recomputed[rows] += self.m

    def insert_many(self, rows: np.ndarray, sites_sel: np.ndarray) -> None:
        """Insert each variant's selected site at its cached best position.

        The cache repair replays ``PlannerKernel.insert`` per row with the
        row axis batched: dead-edge masks are taken before the edge-index
        shift, both new edges are applied sequentially with the identical
        lower-edge-index tie-break, and destroyed-edge candidates are
        rescanned per variant (tours are ragged across variants).
        """
        with span("kernel.batch.insertion"):
            stale = np.flatnonzero(self._ins_stale[rows])
            if len(stale):
                self._flush_insertion_rows(rows[stale])
            self._insertions[rows] += 1
            nodes = sites_sel + 1
            e_sel = self._ins_edges[rows, sites_sel]
            k_olds = np.array([len(self.tours[b]) for b in rows.tolist()])

            first = k_olds == 1
            for b, node in zip(rows[first].tolist(),
                               nodes[first].tolist()):
                self.tours[b].insert(1, node)
            self.in_tour[rows[first], nodes[first]] = True
            self._ins_stale[rows[first]] = True

            gen = ~first
            if not gen.any():
                return
            rows_g = rows[gen]
            e_g = e_sel[gen]
            nodes_g = nodes[gen]
            k_g = k_olds[gen]
            n_rows = self._node_rows(nodes_g.tolist())
            a_nodes = np.empty(len(rows_g), dtype=int)
            b_nodes = np.empty(len(rows_g), dtype=int)
            # repro: allow[hot-path-purity] -- (R, 3) repair rows, R small
            rows3 = np.empty((len(rows_g), 3), dtype=np.intp)
            for i, (b, e, k, node) in enumerate(
                    zip(rows_g.tolist(), e_g.tolist(), k_g.tolist(),
                        nodes_g.tolist())):
                tour = self.tours[b]
                trow = self._tour_rows[b]
                a_nodes[i] = tour[e]
                b_nodes[i] = tour[(e + 1) % k]
                rows3[i, 0] = trow[e]
                rows3[i, 2] = trow[(e + 1) % k]
                tour.insert(e + 1, node)
                trow.insert(e + 1, n_rows[i])
            rows3[:, 1] = n_rows
            self.in_tour[rows_g, nodes_g] = True

            deltas_sub = self._ins_deltas[rows_g]
            edges_sub = self._ins_edges[rows_g]
            dead = edges_sub == e_g[:, None]
            edges_sub[edges_sub > e_g[:, None]] += 1
            # O(1) per candidate: compare against the two edges each
            # row's insertion just created.
            pa = self.points_all[a_nodes]
            pn = self.points_all[nodes_g]
            pb = self.points_all[b_nodes]
            d3 = self._dist_rows[rows3.reshape(-1)]
            d3 = d3.reshape(len(rows_g), 3, self.m)
            lens = np.stack([np.linalg.norm(pn - pa, axis=1),
                             np.linalg.norm(pb - pn, axis=1)], axis=1)
            for t in (0, 1):
                new_edge = (e_g + t)[:, None]
                cand = d3[:, t] + d3[:, t + 1] - lens[:, t][:, None]
                better = (cand < deltas_sub) | ((cand == deltas_sub)
                                                & (new_edge < edges_sub))
                deltas_sub[better] = cand[better]
                edges_sub[better] = np.broadcast_to(
                    new_edge, edges_sub.shape)[better]
            # Full rescan only where a row's recorded best edge died
            # ((edges, sites) layout: the per-site argmin over the edge
            # axis keeps the first-minimum tie-break).
            for i, b in enumerate(rows_g.tolist()):
                dead_idx = np.flatnonzero(dead[i])
                if not len(dead_idx):
                    continue
                k = len(self.tours[b])
                ridx = np.array(self._tour_rows[b], dtype=np.intp)
                sub = self._dist_rows[ridx[:, None], dead_idx]   # (k, dead)
                tour_pts = self.points_all[self.tours[b]]
                nxt = np.arange(1, k + 1)
                nxt[k - 1] = 0
                edge_len = np.linalg.norm(tour_pts[nxt] - tour_pts, axis=1)
                cand = sub + sub[nxt] - edge_len[:, None]
                best = np.argmin(cand, axis=0)
                deltas_sub[i, dead_idx] = cand[best,
                                               np.arange(len(dead_idx))]
                edges_sub[i, dead_idx] = best
                self._deltas_recomputed[b] += len(dead_idx)
            self._ins_deltas[rows_g] = deltas_sub
            self._ins_edges[rows_g] = edges_sub

    def set_tour(self, b: int, order) -> None:
        """Replace variant *b*'s tour wholesale (e.g. after a 2-opt)."""
        self.tours[b] = [int(v) for v in order]
        if 0 not in self.tours[b]:
            raise InvalidParameterError("tour must contain the depot (0)")
        self.in_tour[b] = False
        self.in_tour[b, np.array(self.tours[b], dtype=int)] = True
        self._tour_rows[b] = []        # rebuilt by the next flush
        self._ins_stale[b] = True
        self._tour_flushes[b] += 1

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #
    def perf(self, b: int) -> Dict[str, object]:
        """Variant *b*'s perf snapshot for ``CollectionTour.meta["perf"]``.

        Only grouping-invariant counters appear here — planning the same
        variant in a different column grouping (or alone) yields the
        identical snapshot; the kernel's per-site ``sites_rescored`` has
        no batch equivalent (the column rescores a union dirty set).
        """
        return {
            "engine": "batch",
            "insertions": int(self._insertions[b]),
            "drains": int(self._drains[b]),
            "tour_flushes": int(self._tour_flushes[b]),
            "deltas_recomputed": int(self._deltas_recomputed[b]),
        }


def _polish_tour(kern: BatchPlannerKernel, b: int) -> float:
    """2-opt variant *b*'s tour in place; returns the new tour length.

    Identical operation sequence to Algorithm 2/3's polish blocks: local
    pairwise distances, 2-opt, depot roll, wholesale ``set_tour``.
    """
    tour_arr = np.array(kern.tours[b], dtype=int)
    tour_pts = kern.points_all[tour_arr]
    # repro: allow[hot-path-purity] -- (|tour|, |tour|) only, not (m, n)
    local_dist = pairwise_distances(tour_pts)
    improved = two_opt(np.arange(len(tour_arr)), local_dist)
    start = int(np.flatnonzero(tour_arr[improved] == 0)[0])
    order = np.roll(improved, -start)
    kern.set_tour(b, [int(tour_arr[i]) for i in order])
    return float(tour_length_matrix(np.arange(len(order)),
                                    local_dist[np.ix_(order, order)]))


def _reduce_column_sites(sites: HoveringSites, site_reduction,
                         energies: Sequence[EnergyModel]) -> HoveringSites:
    """Run the pre-pass once for a whole capacity column.

    The reachability bound is the largest-capacity variant (``max`` keeps
    the first maximum, so ties are deterministic): a site whose depot
    out-and-back exceeds the largest battery is unreachable for every
    variant, which is what keeps the safe level plan-preserving
    column-wide.  Already-reduced sites pass through untouched.
    """
    reduction = resolve_reduction(site_reduction)
    if not reduction.enabled or isinstance(sites, ReducedSites):
        return sites
    cap_energy = max(energies, key=lambda e: e.capacity)
    return reduce_sites(sites, reduction, energy=cap_energy)


def plan_algorithm2_batch(network: SensorNetwork,
                          energies: Sequence[EnergyModel],
                          radio: RadioModel, delta: float, *,
                          polish: bool = True,
                          scoring: str = "ratio",
                          sites: Optional[HoveringSites] = None,
                          site_reduction=None,
                          max_iterations: Optional[int] = None
                          ) -> List[CollectionTour]:
    """Plan one Algorithm 2 capacity column: one tour per energy variant.

    Each returned tour is bitwise-identical to
    ``plan_algorithm2(..., energies[b])`` — same points,
    sojourns, collected volumes, iteration counts.  Only
    ``tsp_mode="insertion"`` batches (the Christofides mode re-solves a
    TSP per candidate and has no stacked formulation).

    ``site_reduction`` runs the pre-pass once for the whole column with
    the *largest*-capacity variant as the reachability bound (see
    :func:`repro.core.reduce.reduce_sites`): ``safe`` eliminations stay
    plan-preserving for every variant, so the per-variant bitwise
    equivalence to the scalar kernel holds with the pre-pass on.
    """
    if scoring not in SCORING_POLICIES:
        raise InvalidParameterError(
            f"scoring must be one of {SCORING_POLICIES}, got {scoring!r}")
    if sites is None:
        sites = build_hovering_sites(network, radio, delta)
    sites = _reduce_column_sites(sites, site_reduction, energies)
    kern = BatchPlannerKernel(sites, energies, radio)
    B, m = kern.B, kern.m
    pts_all = kern.points_all
    volumes = network.volumes
    eta_h, etat_m = kern.eta_h, kern.etat_m
    caps = kern.capacities

    sojourn_of: List[Dict[int, float]] = [{0: 0.0} for _ in range(B)]
    hover = np.zeros(B)
    tour_len = np.zeros(B)
    iters = np.zeros(B, dtype=np.int64)
    limit = max_iterations if max_iterations is not None else m + 1

    def greedy_rounds(active: np.ndarray, policy: str,
                      count_iters: bool) -> None:
        """Batched greedy rounds until every variant in *active* stops."""
        while active.any():
            with span("batch.round"):
                if count_iters:
                    active &= iters < limit
                    if not active.any():
                        return
                    iters[active] += 1
                p_res, t_res = kern.residual_scores()       # Eqs. 11-12
                eligible = (p_res > 0) & ~kern.in_tour[:, 1:]
                active &= eligible.any(axis=1)
                if not active.any():
                    return
                deltas = kern.insertion_state(active)
                new_energy = ((hover[:, None] + t_res) * eta_h
                              + (tour_len[:, None]
                                 + np.maximum(deltas, 0.0)) * etat_m)
                feasible = eligible & (new_energy <= caps[:, None] + 1e-9)
                active &= feasible.any(axis=1)
                if not active.any():
                    return
                rho = _score(policy, p_res, t_res, deltas, eta_h, etat_m,
                             feasible)
                rows = np.flatnonzero(active)
                j_sel = np.argmax(rho, axis=1)[rows]
                # Capture before insert_many: `deltas` aliases the
                # kernel's cache, which the insert writes back into.
                d_sel = deltas[rows, j_sel]
                kern.insert_many(rows, j_sel)
                tour_len[rows] += d_sel
                dur = t_res[rows, j_sel]
                for b, jj, d in zip(rows.tolist(), j_sel.tolist(),
                                    dur.tolist()):
                    sojourn_of[b][jj + 1] = d
                hover[rows] += dur
                kern.drain_full_many(rows, j_sel)

    with span("batch.greedy"):
        greedy_rounds(np.ones(B, dtype=bool), scoring, True)

    if polish:
        with span("batch.polish"):
            refill = np.zeros(B, dtype=bool)
            for b in range(B):
                if len(kern.tours[b]) >= 4:
                    tour_len[b] = _polish_tour(kern, b)
                    refill[b] = True
            if refill.any():
                # Post-polish refill always uses the paper's ratio rule
                # and does not count iterations (same as Algorithm 2).
                greedy_rounds(refill, "ratio", False)

    tours: List[CollectionTour] = []
    for b in range(B):
        order = np.array(kern.tours[b], dtype=int)
        meta = {
            "n_candidates": m,
            "n_visited": len(kern.tours[b]) - 1,
            "iterations": int(iters[b]),
            "tsp_mode": "insertion",
            "scoring": scoring,
            "polished": bool(polish),
            "delta": float(sites.delta),
            "perf": kern.perf(b),
        }
        attach_reduction_meta(meta, sites)
        tours.append(CollectionTour(
            points=pts_all[order],
            sojourns=np.array([sojourn_of[b][v] for v in kern.tours[b]]),
            collected=np.where(kern.covered[b], volumes, 0.0),
            network=network, energy=kern.energies[b], method="algorithm2",
            meta=meta))
    return tours


def plan_algorithm3_batch(network: SensorNetwork,
                          energies: Sequence[EnergyModel],
                          radio: RadioModel, delta: float, K: int, *,
                          polish: bool = True,
                          sites: Optional[HoveringSites] = None,
                          site_reduction=None,
                          max_iterations: Optional[int] = None
                          ) -> List[CollectionTour]:
    """Plan one Algorithm 3 capacity column: one tour per energy variant.

    Bitwise-identical per variant to
    ``plan_algorithm3(..., energies[b])``;
    ``site_reduction`` follows the column-wide max-capacity convention of
    :func:`plan_algorithm2_batch`.
    """
    K = check_integer(K, "K", minimum=1)
    if sites is None:
        sites = build_hovering_sites(network, radio, delta)
    sites = _reduce_column_sites(sites, site_reduction, energies)
    kern = BatchPlannerKernel(sites, energies, radio,
                              volume_tol=_VOLUME_TOL)
    B, m = kern.B, kern.m
    pts_all = kern.points_all
    bandwidth = radio.bandwidth
    eta_h, etat_m = kern.eta_h, kern.etat_m
    caps = kern.capacities
    fractions = np.arange(1, K + 1) / K

    sojourn_of: List[Dict[int, float]] = [{0: 0.0} for _ in range(B)]
    hover = np.zeros(B)
    tour_len = np.zeros(B)
    iters = np.zeros(B, dtype=np.int64)
    limit = (max_iterations if max_iterations is not None
             else 2 * K * (m + 1))

    def greedy_rounds(active: np.ndarray) -> None:
        """Batched (site, k) selections until every variant stops."""
        while active.any():
            with span("batch.round"):
                active &= iters < limit
                if not active.any():
                    return
                iters[active] += 1
                t_max, tau, p_partial = kern.partial_scores(fractions)
                eligible_site = t_max > _VOLUME_TOL / bandwidth
                active &= eligible_site.any(axis=1)
                if not active.any():
                    return
                # Travel delta: zero for on-tour sites (Lemma 2 upgrade).
                deltas = np.maximum(kern.insertion_state(active), 0.0)
                deltas[kern.in_tour[:, 1:]] = 0.0
                new_energy = ((hover[:, None, None] + tau) * eta_h
                              + (tour_len[:, None]
                                 + deltas)[:, :, None] * etat_m)
                feasible = ((new_energy <= caps[:, None, None] + 1e-9)
                            & (p_partial > _VOLUME_TOL)
                            & eligible_site[:, :, None])
                active &= feasible.reshape(B, -1).any(axis=1)
                if not active.any():
                    return
                denom = np.maximum(tau * eta_h
                                   + deltas[:, :, None] * etat_m,
                                   _DENOM_EPS)
                rho = np.where(feasible, p_partial / denom, -np.inf)
                rows = np.flatnonzero(active)
                flat = np.argmax(rho.reshape(B, -1), axis=1)[rows]
                j_sel, k_sel = np.unravel_index(flat, (m, K))
                durations = tau[rows, j_sel, k_sel]
                nodes = j_sel + 1
                newly = ~kern.in_tour[rows, nodes]
                if newly.any():
                    ins_rows = rows[newly]
                    ins_j = j_sel[newly]
                    kern.insert_many(ins_rows, ins_j)
                    tour_len[ins_rows] += deltas[ins_rows, ins_j]
                    for b, jj in zip(ins_rows.tolist(), ins_j.tolist()):
                        sojourn_of[b][jj + 1] = 0.0
                for b, jj, d in zip(rows.tolist(), j_sel.tolist(),
                                    durations.tolist()):
                    sojourn_of[b][jj + 1] += d
                hover[rows] += durations
                kern.drain_partial_many(rows, j_sel, durations)

    with span("batch.greedy"):
        greedy_rounds(np.ones(B, dtype=bool))

    if polish:
        with span("batch.polish"):
            refill = np.zeros(B, dtype=bool)
            for b in range(B):
                if len(kern.tours[b]) >= 4:
                    tour_len[b] = _polish_tour(kern, b)
                    refill[b] = True
            if refill.any():
                # Algorithm 3's refill re-enters the same greedy loop
                # and keeps counting iterations against the same limit.
                greedy_rounds(refill)

    tours: List[CollectionTour] = []
    for b in range(B):
        order = np.array(kern.tours[b], dtype=int)
        meta = {
            "n_candidates": m,
            "n_virtual_candidates": m * K,
            "n_visited": len(kern.tours[b]) - 1,
            "iterations": int(iters[b]),
            "K": K,
            "polished": bool(polish),
            "delta": float(sites.delta),
            "perf": kern.perf(b),
        }
        attach_reduction_meta(meta, sites)
        tours.append(CollectionTour(
            points=pts_all[order],
            sojourns=np.array([sojourn_of[b][v] for v in kern.tours[b]]),
            collected=network.volumes - kern.rem[b],
            network=network, energy=kern.energies[b], method="algorithm3",
            meta=meta))
    return tours


__all__ = ["BatchPlannerKernel", "plan_algorithm2_batch",
           "plan_algorithm3_batch"]
