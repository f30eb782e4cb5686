"""Incremental planner state engine shared by Algorithms 2/3 and the baseline.

The paper's greedy loops (Algorithms 2 and 3; Algorithm 2 is Algorithm
3's loop at K = 1) repeatedly need three quantities for *every*
candidate hovering location:

* the residual hover time ``t'(s_j)`` (Eq. 12),
* the residual awards of its K sojourns ``k·t'(s_j)/K`` (Eq. 4 on
  residual volumes; at K = 1 the residual award ``P'(s_j)`` of Eq. 11),
* the cheapest-insertion tour delta ``dTSP(s_j)``.

The textbook formulation recomputes all three from scratch on every
iteration — ``(m, n)`` masked row reductions plus an ``(m, |tour|)``
insertion scan — which is O(m·n + m·|tour|) *per selection*
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
  ``(m, n)`` temporary is ever materialised.  The flush is fused: one
  gather of the dirty rows yields ``t'`` and all K partial-award
  columns, and :attr:`PlannerKernel.changed_rows` tells the planner
  which rows of its ratio table to recompute.  Algorithm 3's tied
  one-sensor rounds (an upgrade of a site whose one undrained sensor
  ``v`` is the only dirty sensor, :meth:`PlannerKernel.lone_sensor`)
  are scored by the planner in one pass and applied by
  :meth:`PlannerKernel.drain_chain`.
* **Cached cheapest-insertion deltas** — each candidate remembers its best
  tour edge.  An insertion destroys exactly one edge and creates two, and
  every candidate is updated against the two new edges in O(1).  A
  candidate whose recorded best edge was destroyed has a delta on every
  surviving edge at least its old minimum, so a new edge that beats that
  minimum strictly is exactly what a full scan returns; only the
  destroyed-edge candidates no new edge beats strictly (exact ties
  included) are rescanned (O(|tour|) each).  A 2-opt polish reorders
  the tour wholesale and triggers a full flush.  Distances come from a
  **row store** keyed by node id
  (:class:`~repro.utils.rowstore.RowStore`): one contiguous length-m
  row of site distances per tour node, evaluated once with
  ``cross_distances`` when the node joins the tour, so an insertion
  computes only the new node's row and reads its two neighbours' rows
  (whose entries at the new site are the new edges' lengths).  The
  ring's row-store slots and edge lengths are kept in step with the
  tour: a flush evaluates the lengths with ``np.linalg.norm``, and an
  insertion splices in the new node's slot and the two new edges'
  lengths it already read.  Rescans and flushes gather the tour's rows
  in ring order as **tour-major** ``(|tour| + 1, |idx|)`` blocks (of at
  most ``_SCAN_CHUNK`` candidates) — the layout of GRASP's
  ``all_insertion_deltas`` — and take ``(d_i + d_{i+1}) - len_i`` with
  a first-minimum ``argmin`` over the tour axis.

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
measured only by the ``kernel.partial`` (the fused flush) /
``kernel.insertion`` spans on the active :mod:`repro.obs` tracer — free
when tracing is disabled, a flame chart when it is not.
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
from repro.utils.rowstore import RowStore
from repro.utils.validation import check_integer, check_non_negative


#: Candidates per block of an insertion scan: a full flush at m = 6,122
#: sites and 40 tour nodes holds ~1 MB of temporaries, not ~6 MB.
_SCAN_CHUNK = 1024

#: Residual volumes below this many MB are treated as fully collected:
#: every drain snaps them to zero, which keeps the greedy loop from
#: chasing floating-point dust.
_VOLUME_TOL = 1e-9


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

    Notes
    -----
    The kernel owns the working tour (``tour`` — node ids into
    ``points_all``, depot = 0) and the residual volumes (``rem``); planners
    stay thin policy layers deciding *which* candidate to take, while all
    state bookkeeping funnels through :meth:`insert`, :meth:`set_tour`,
    :meth:`drain_partial` and :meth:`drain_chain`.

    ``changed_rows`` reports the rows of the ``(t', tau, partial awards)``
    table the last :meth:`partial_scores` call recomputed, as sorted site
    indices; ``None`` means every row (the first call, a new
    ``fractions``, or a kernel that does not track rows).
    """

    def __init__(self, sites: HoveringSites, energy, radio) -> None:
        self.sites = sites
        self.energy = energy
        self.radio = radio
        self.m = sites.n_sites
        self.n = sites.network.n_nodes
        self.bandwidth = radio.bandwidth
        self.points_all = np.vstack([sites.network.depot[None, :],
                                     sites.points])
        self.csr = sites.csr

        # --- residual state -------------------------------------------- #
        self.rem = sites.network.volumes.astype(float).copy()
        self._t_res = np.zeros(self.m)
        self._dirty_sensors = np.ones(self.n, dtype=bool)

        # --- partial-award table --------------------------------------- #
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
        # Node -> site distance rows, evaluated the first time a scan or
        # an insertion needs them and kept: one row per node ever toured.
        self._rows = RowStore(self.m + 1, self.m)
        # The ring's row-store slots (tour + depot-closing repeat) and
        # its edge lengths, kept in step with the tour by every insert
        # and rebuilt by every full flush.
        self._ring_slots = np.zeros(1, dtype=np.intp)
        self._edge_len = np.zeros(0)

        # Work counters: the ``meta["perf"]`` snapshot always carries
        # the full key set.
        self.counters: Dict[str, int] = {
            "insertions": 0, "drains": 0, "tour_flushes": 0,
            "sites_rescored": 0, "deltas_recomputed": 0}

    # ------------------------------------------------------------------ #
    # Residual hover times t' and partial awards  (Eqs. 4, 12)
    # ------------------------------------------------------------------ #
    def partial_scores(self, fractions: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``(t', tau, partial awards)`` table over K partitions.

        ``tau[j, k] = t'(s_j) * fractions[k]`` and ``p_partial[j, k]`` is
        Eq. 4 evaluated on residual volumes.  Rows are recomputed only for
        candidates whose residuals changed; :attr:`changed_rows` names
        them.  *fractions* must be 1-D, non-empty, finite and in
        ``(0, 1]`` (checked when they differ from the cached ones).
        """
        fractions = np.asarray(fractions, dtype=float)
        fresh = self._fractions is None or not np.array_equal(
            self._fractions, fractions)
        if fresh:
            if (fractions.ndim != 1 or len(fractions) == 0
                    or not ((fractions > 0.0) & (fractions <= 1.0)).all()):
                raise InvalidParameterError(
                    "fractions must be a non-empty 1-D array of values in "
                    f"(0, 1], got {fractions!r}")
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
        """Recompute ``t'`` and the (site, k) rows of dirty sites.

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
        self._partial_dirty[:] = False
        if len(rows) == 0:
            return rows
        idxs, starts, lengths = self.csr.gather(rows)
        vals = self.rem[idxs]
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
    def _site(self, site: int) -> int:
        """*site* as a candidate index in ``[0, m)`` (O(1) scalar check)."""
        j = check_integer(site, "site", minimum=0)
        if j >= self.m:
            raise InvalidParameterError(
                f"site must be < {self.m} (the candidate count), got {site!r}")
        return j

    def drain_partial(self, site: int, duration: float) -> None:
        """OFDMA drain at *site* for *duration* seconds.

        Each covered sensor uploads ``min(rem, B * duration)`` on its own
        channel, and a residual it leaves below :data:`_VOLUME_TOL` is
        snapped to zero.  Sensors *site* does not cover keep their
        residuals, so one never covered is never counted as collected.
        """
        site = self._site(site)
        duration = check_non_negative(duration, "duration")
        idx = self.csr.sensors_of(site)
        vals = self.rem[idx]
        uploaded = np.minimum(vals, self.bandwidth * duration)
        left = vals - uploaded
        dust = (left > 0.0) & (left < _VOLUME_TOL)
        left[dust] = 0.0
        self.rem[idx] = left
        self._dirty_sensors[idx[(uploaded > 0.0) | dust]] = True
        self.counters["drains"] += 1

    def lone_sensor(self, site: int) -> int:
        """The one undrained sensor of *site* if it is the only dirty one.

        Returns ``-1`` unless *site* covers exactly one sensor ``v`` with
        a positive residual, ``v`` is the only dirty sensor and no row is
        pending: the state after an upgrade round of Algorithm 3 on a
        site with one sensor left, whose next flush rescores exactly
        ``csr.sites_of(v)``.
        """
        idx = self.csr.sensors_of(self._site(site))
        live = idx[self.rem[idx] > 0.0]
        if len(live) != 1:
            return -1
        v = int(live[0])
        if (not self._dirty_sensors[v]
                or np.count_nonzero(self._dirty_sensors) != 1
                or self._partial_dirty.any()):
            return -1
        return v

    def drain_chain(self, site: int, durations) -> None:
        """Apply replayed Algorithm 3 rounds at *site*, one per duration.

        *site* must have a lone sensor ``v`` (:meth:`lone_sensor`), and
        every round must find ``v`` undrained and upload from it
        (``bandwidth * d > 0``).  Each round is what a
        :meth:`partial_scores` call followed by
        ``drain_partial(site, d)`` does to the kernel: the flush rescores
        ``csr.sites_of(v)`` (counted, scored by the caller) and the drain
        uploads ``min(rem[v], B * d)`` and snaps dust.  ``v`` stays dirty,
        so the next :meth:`partial_scores` call rescores its rows.
        Raises :class:`InvalidParameterError`, with the state intact, on
        any other input.
        """
        site = self._site(site)
        v = self.lone_sensor(site)
        if v < 0:
            raise InvalidParameterError(
                f"site {site} has no lone dirty undrained sensor")
        durations = np.asarray(durations, dtype=float)
        if durations.ndim != 1 or not (
                np.isfinite(durations) & (self.bandwidth * durations > 0.0)
        ).all():
            raise InvalidParameterError(
                "durations must be a 1-D array of finite values that each "
                f"upload data, got {durations!r}")
        rounds = len(durations)
        if rounds == 0:
            return
        r = float(self.rem[v])
        for d in durations.tolist():
            if not r > 0.0:
                raise InvalidParameterError(
                    f"sensor {v} is drained before the last of {rounds} "
                    "rounds")
            r -= min(r, self.bandwidth * d)
            if 0.0 < r < _VOLUME_TOL:
                r = 0.0
        self.rem[v] = r
        self.counters["drains"] += rounds
        self.counters["sites_rescored"] += rounds * len(self.csr.sites_of(v))

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

    def _node_rows(self, nodes: np.ndarray) -> np.ndarray:
        """``(len(nodes), m)`` distances from tour nodes to every site."""
        return cross_distances(self.points_all[nodes], self.sites.points)

    def _flush_insertion(self) -> None:
        """Full cheapest-insertion scan of every candidate.

        Rebuilds the ring's slots and edge lengths first
        (``np.linalg.norm`` between consecutive ring points).
        """
        ring = self.tour + self.tour[:1]
        self._ring_slots = self._rows.slots(ring, self._node_rows)
        pts = self.points_all[ring]
        self._edge_len = np.linalg.norm(pts[1:] - pts[:-1], axis=1)
        self._scan_insertion(np.arange(self.m))
        self._ins_stale = False

    def _scan_insertion(self, idx: np.ndarray) -> None:
        """Scan candidates *idx* against every edge of the current tour.

        Gathers the tour's stored rows in ring order (the kept ring
        slots) as tour-major ``(|tour| + 1, |chunk|)`` blocks over at
        most :data:`_SCAN_CHUNK` candidates each; edge ``i``'s delta is
        ``(d_i + d_{i+1}) - len_i`` with the kept edge lengths.  Caches
        each candidate's cheapest delta and the first edge attaining it
        (first-minimum ``argmin``).
        """
        slots = self._ring_slots
        kept = self._rows.kept
        edge_len = self._edge_len[:, None]
        for lo in range(0, len(idx), _SCAN_CHUNK):
            cols = idx[lo:lo + _SCAN_CHUNK]
            # About one row is kept per tour node: taking the columns of
            # every kept row, then the ring's rows, is the cheaper gather.
            block = kept.take(cols, axis=1)[slots]
            cand = block[:-1] + block[1:]
            cand -= edge_len
            best = np.argmin(cand, axis=0)
            self._ins_deltas[cols] = cand[best, np.arange(len(cols))]
            self._ins_edges[cols] = best
        self.counters["deltas_recomputed"] += len(idx)

    def insert(self, site: int) -> int:
        """Insert candidate *site* at its cached best position.

        Updates the tour and repairs the delta cache in place with
        :func:`~repro.tsp.construct.repair_insertion_cache`: every
        candidate is checked against the two edges the insertion created
        (O(1), exact-tie broken toward the lower edge index like a fresh
        ``argmin``), and only candidates whose recorded best edge was
        destroyed and that neither new edge beats strictly are fully
        rescanned.  The ring's slots and edge lengths take the new node's
        slot and the two new edges' lengths.

        Returns the insertion position (for the caller's bookkeeping).
        Raises :class:`InvalidParameterError` for a site that is not a
        candidate index or is already on the tour.
        """
        site = self._site(site)
        node = site + 1
        if self.in_tour[node]:
            raise InvalidParameterError(f"site {site} is already on the tour")
        if self._ins_stale:
            self._flush_insertion()
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
            # O(1) per candidate: compare against the two edges just
            # created, from the stored rows of a and b and node's new row.
            # The new edges' lengths are a's and b's distances to the
            # site, the same IEEE sum of squares as np.linalg.norm.
            sa, sb = self._ring_slots[e], self._ring_slots[e + 1]
            sn = self._rows.slots([node], self._node_rows)[0]
            rows = self._rows.data
            row_a, row_n, row_b = rows[sa], rows[sn], rows[sb]
            len_a, len_b = row_a[site], row_b[site]
            via_a = row_a + row_n
            via_a -= len_a
            via_b = row_n + row_b
            via_b -= len_b
            self._ring_slots = np.insert(self._ring_slots, pos, sn)
            self._edge_len = np.concatenate(
                (self._edge_len[:e], [len_a, len_b], self._edge_len[pos:]))
            dead_idx = repair_insertion_cache(
                self._ins_deltas, self._ins_edges, e, (via_a, via_b))
            # Full rescan only where no new edge settled a destroyed best.
            if len(dead_idx):
                self._scan_insertion(dead_idx)
        return pos

    def set_tour(self, order) -> None:
        """Replace the tour wholesale (e.g. after a 2-opt polish).

        Flushes the insertion cache — a reorder invalidates every cached
        best edge at once, which is why the polish pass is the one place
        the kernel pays a full O(m·|tour|) rescan.  *order* must hold
        distinct integer node ids in ``[0, m]`` including the depot 0;
        anything else raises :class:`InvalidParameterError` with the
        state intact.
        """
        tour = [check_integer(v, "tour node", minimum=0) for v in order]
        if 0 not in tour:
            raise InvalidParameterError("tour must contain the depot (0)")
        if max(tour) > self.m:
            raise InvalidParameterError(
                f"tour nodes must be <= {self.m} (the candidate count), "
                f"got {max(tour)}")
        if len(set(tour)) != len(tour):
            raise InvalidParameterError(f"tour repeats a node: {tour!r}")
        self.tour = tour
        self.in_tour[:] = False
        self.in_tour[tour] = True
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

    def saving(self, i: int) -> float:
        """Joules saved by splicing out sensor position *i* (not the
        depot): its hover energy plus the travel its splice saves."""
        tour = self.tour
        v = tour[i]
        prev_node = tour[i - 1]
        next_node = tour[(i + 1) % len(tour)]
        saved_travel = (self.dist[prev_node, v] + self.dist[v, next_node]
                        - self.dist[prev_node, next_node])
        return (self.hover_times[v - 1] * self.eta_h
                + saved_travel * self.etat_m)

    def _ratio_at(self, i: int) -> float:
        """Data lost per joule saved by splicing out position *i*."""
        v = self.tour[i]
        if v == 0:                       # the depot is never removable
            return np.inf
        saved = self.saving(i)
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
