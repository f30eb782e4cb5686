"""Candidate-site reduction pre-pass (runs between §III-B and Algs. 1-3).

Dense δ-grids explode the candidate-site count ``m`` (Fig. 4's δ = 5 m
column enumerates tens of thousands of squares for |V| = 500) and every
greedy round of Algorithms 1-3 scores all of them, even with the
incremental kernel and the stacked batch engine.  Following the
TSP-derived candidate-pruning idea of Krishnan et al. (arXiv:2306.01355),
this module shrinks the candidate :class:`~repro.core.hovering.HoveringSites`
*before* any planner runs, behind a :class:`SiteReduction` config with two
preset levels:

``safe`` — provably plan-preserving eliminations only.  A site with zero
residual award can never be selected (Eq. 11 keeps its ``P'`` at 0), and a
site whose out-and-back depot leg alone exceeds the battery can never pass
the planners' feasibility test ``new_energy <= E + 1e-9`` (any closed tour
through ``s`` has length ``>= 2·d(depot, s)``, so the travel term alone
already overshoots).  Removing such sites changes neither the residual
scores nor the argmax tie-breaks of the survivors, so Algorithms 2/3
produce bitwise-identical tours per cell and per batch column (pinned by
``tests/test_core_reduce.py`` and the hypothesis properties).

``aggressive`` — three additional heuristic stages that trade collected
data for candidate count (the deltas are measured by the claims harness,
never assumed):

* **dominated-coverage elimination** — drop any site whose covered-sensor
  set is a subset of another surviving site's (a subset never has the
  larger award, volumes being non-negative; equal sets keep the lowest
  index).  NOTE: dominance is *not* plan-preserving for the greedy
  heuristics — a dominated site can sit closer to the current tour, win
  Eq. 13 on a smaller insertion delta, and steer construction — which is
  why it lives above the ``safe`` level (see DESIGN.md §9).
* **cluster representatives** — group near-duplicate sites (coverage-set
  Jaccard ≥ ``cluster_jaccard`` within a ``cluster_radius_factor``·δ
  ball) and keep one representative per cluster (max award, ties to the
  lowest index).
* **TSP-corridor filtering** — build a cheap tour (nearest-neighbour +
  2-opt) over a greedy set-cover skeleton of the survivors and drop sites
  whose cheapest-insertion detour off that corridor exceeds
  ``corridor_budget_factor``·R0 metres.  The budget is deliberately
  denominated in metres, not joules, so per-cell plans and batch columns
  (which plan whole capacity columns at once) agree on the survivor set.

A coverage-repair step then re-adds the best dropped site for any sensor
the aggressive stages orphaned, so reachable sensors never silently lose
all coverage.

Every reduction returns a :class:`ReducedSites` — a row-sliced
``HoveringSites`` carrying the survivor→original index map and per-stage
drop counts; planners surface those under ``meta["site_reduction"]`` and
``meta["perf"]["reduce"]`` so the run ledger folds them into the
``kernel.reduce.*`` work counters the ``repro-bench`` gate keys on.
"""
# repro: hot-path  (m can be ~4e4 on dense grids: no (m, m)/(m, n) denses)

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Union

import numpy as np

from repro.core.hovering import HoveringSites
from repro.energy.model import EnergyModel
from repro.geometry.coverage import SparseCoverage
from repro.geometry.distance import cross_distances, pairwise_distances
from repro.obs.tracer import span
from repro.tsp.construct import nearest_neighbor_tour
from repro.tsp.improve import two_opt
from repro.tsp.length import tour_length_matrix
from repro.utils.errors import InvalidParameterError

#: Feasibility slack, matching the planners' ``new_energy <= E + 1e-9``.
_FEAS_TOL = 1e-9

#: Residual-award floor of the corridor skeleton's set-cover loop.
_AWARD_TOL = 1e-12

#: Rows per chunk of the sparse coverage gram product (bounds the peak
#: intersection-count buffer to ~chunk × mean-overlap entries).
_GRAM_CHUNK = 2048

#: Preset names accepted by :func:`resolve_reduction` and the CLI.
REDUCTION_LEVELS = ("off", "safe", "aggressive")


@dataclass(frozen=True)
class SiteReduction:
    """Which reduction stages run, and their knobs.

    ``level`` is a display/transport label; the stage booleans are the
    actual behaviour (so a custom mix is expressible).  Use
    :func:`resolve_reduction` to build one from a preset name or a
    transport dict.
    """

    level: str = "off"
    zero_award: bool = False
    unreachable: bool = False
    dominated: bool = False
    cluster: bool = False
    corridor: bool = False
    cluster_jaccard: float = 0.75
    cluster_radius_factor: float = 2.0
    corridor_budget_factor: float = 2.0

    def __post_init__(self) -> None:
        if not isinstance(self.level, str) or not self.level:
            raise InvalidParameterError("reduction level must be a string")
        if not (0.0 < self.cluster_jaccard <= 1.0):
            raise InvalidParameterError(
                f"cluster_jaccard must be in (0, 1], "
                f"got {self.cluster_jaccard}")
        if self.cluster_radius_factor <= 0.0:
            raise InvalidParameterError(
                f"cluster_radius_factor must be positive, "
                f"got {self.cluster_radius_factor}")
        if self.corridor_budget_factor <= 0.0:
            raise InvalidParameterError(
                f"corridor_budget_factor must be positive, "
                f"got {self.corridor_budget_factor}")

    @property
    def enabled(self) -> bool:
        """True when any stage runs at all."""
        return (self.zero_award or self.unreachable or self.dominated
                or self.cluster or self.corridor)

    @property
    def capacity_dependent(self) -> bool:
        """True when the survivor set depends on the battery capacity."""
        return self.unreachable

    def as_dict(self) -> Dict[str, Any]:
        """Plain-JSON view (the worker-transport / cache-key payload)."""
        return {
            "level": self.level,
            "zero_award": bool(self.zero_award),
            "unreachable": bool(self.unreachable),
            "dominated": bool(self.dominated),
            "cluster": bool(self.cluster),
            "corridor": bool(self.corridor),
            "cluster_jaccard": float(self.cluster_jaccard),
            "cluster_radius_factor": float(self.cluster_radius_factor),
            "corridor_budget_factor": float(self.corridor_budget_factor),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SiteReduction":
        """Inverse of :meth:`as_dict`; unknown keys are an error."""
        unknown = set(payload) - set(cls().as_dict())
        if unknown:
            raise InvalidParameterError(
                f"unknown SiteReduction keys: {sorted(unknown)}")
        return cls(**dict(payload))

    def key(self) -> str:
        """Canonical-JSON cache-key fragment (stable across processes)."""
        return json.dumps(self.as_dict(), sort_keys=True)

    def transport(self) -> Union[str, Dict[str, Any]]:
        """JSON-safe wire form: the preset name when exact, else the dict."""
        preset = _PRESETS.get(self.level)
        if preset is not None and preset == self:
            return self.level
        return self.as_dict()


_PRESETS: Dict[str, SiteReduction] = {
    "off": SiteReduction(level="off"),
    "safe": SiteReduction(level="safe", zero_award=True, unreachable=True),
    "aggressive": SiteReduction(level="aggressive", zero_award=True,
                                unreachable=True, dominated=True,
                                cluster=True, corridor=True),
}


def resolve_reduction(
        value: Union[None, str, Mapping[str, Any], SiteReduction],
) -> SiteReduction:
    """Coerce a planner's ``site_reduction=`` argument to a config.

    Accepts ``None`` (off), a preset name from :data:`REDUCTION_LEVELS`,
    a transport dict (:meth:`SiteReduction.as_dict`), or a ready config.
    """
    if value is None:
        return _PRESETS["off"]
    if isinstance(value, SiteReduction):
        return value
    if isinstance(value, str):
        try:
            return _PRESETS[value]
        except KeyError:
            raise InvalidParameterError(
                f"site_reduction must be one of {REDUCTION_LEVELS}, "
                f"got {value!r}")
    if isinstance(value, Mapping):
        return SiteReduction.from_dict(value)
    raise InvalidParameterError(
        f"site_reduction must be None, a level name, a dict, or a "
        f"SiteReduction, got {type(value).__name__}")


@dataclass
class ReducedSites(HoveringSites):
    """A row-sliced :class:`HoveringSites` plus its provenance.

    ``survivors`` maps reduced site index → original site index (strictly
    increasing — the reduction is a row slice, never a reorder);
    ``stats`` counts per-stage drops.  Planners accept a
    ``ReducedSites`` wherever they accept ``sites=`` and will not reduce
    it again (the cluster stage is not idempotent).
    """

    survivors: np.ndarray = field(default_factory=lambda: np.empty(0, int))
    n_original: int = 0
    reduction: SiteReduction = field(default_factory=SiteReduction)
    stats: Dict[str, int] = field(default_factory=dict)

    def to_original(self, indices) -> np.ndarray:
        """Original site ids of the given reduced site *indices*."""
        idx = np.asarray(indices, dtype=int)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_sites):
            raise InvalidParameterError(
                f"reduced site index out of range [0, {self.n_sites})")
        return self.survivors[idx]

    def from_original(self, indices) -> np.ndarray:
        """Reduced indices of original site ids (-1 where dropped)."""
        idx = np.asarray(indices, dtype=int)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_original):
            raise InvalidParameterError(
                f"original site index out of range [0, {self.n_original})")
        inverse = np.full(self.n_original, -1, dtype=int)
        inverse[self.survivors] = np.arange(self.n_sites)
        return inverse[idx]

    def meta_block(self) -> Dict[str, Any]:
        """The ``meta["site_reduction"]`` payload planners attach."""
        return {"level": self.reduction.level,
                "n_original": int(self.n_original),
                "n_reduced": int(self.n_sites),
                "stats": {k: int(v) for k, v in self.stats.items()}}


def attach_reduction_meta(meta: Dict[str, Any],
                          sites: HoveringSites) -> None:
    """Surface the pre-pass provenance when *sites* went through it.

    The stage drop counts land under ``meta["perf"]["reduce"]`` so the
    sweep rows' perf means (``reduce.*``) and the run ledger
    (``kernel.reduce.*`` work counters) pick them up; ``meta`` is
    untouched for unreduced sites, keeping the off-level output
    bitwise-compatible.
    """
    if isinstance(sites, ReducedSites):
        meta["site_reduction"] = sites.meta_block()
        meta.setdefault("perf", {})["reduce"] = {
            k: int(v) for k, v in sites.stats.items()}


def reduce_sites(sites: HoveringSites,
                 reduction: Union[None, str, Mapping[str, Any],
                                  SiteReduction] = None, *,
                 energy: Optional[EnergyModel] = None,
                 corridor_seed: Optional[np.ndarray] = None) -> ReducedSites:
    """Run the configured reduction stages over *sites*.

    ``energy`` feeds the ``unreachable`` stage (its capacity is the
    feasibility bound); when ``None`` that stage is skipped.  For a batch
    column, pass the **largest**-capacity variant: a site unreachable at
    the largest battery is unreachable for every variant, which keeps the
    pre-pass plan-preserving column-wide.

    ``corridor_seed`` warm-starts the TSP-corridor stage: an ``(t, 2)``
    array of already-planned hover points (a coarser δ-grid's tour, the
    δ-continuation mode) used as the corridor skeleton *instead of* the
    greedy set-cover one — the corridor follows where the coarse tour
    actually went.  Ignored unless the config's ``corridor`` stage runs.

    The result is a pure, deterministic function of
    ``(sites, reduction config, capacity bound, corridor seed)`` — no
    RNG, no ordering sensitivity — which is what lets the artifact cache
    memoize it (the seed joins the cache key) and the parallel executor
    reproduce it in any worker.
    """
    cfg = resolve_reduction(reduction)
    if isinstance(sites, ReducedSites):
        raise InvalidParameterError(
            "sites are already reduced; reduce_sites() is not idempotent "
            "(pass the original HoveringSites)")
    m = sites.n_sites
    keep = np.ones(m, dtype=bool)
    stats = {"sites_in": m, "zero_award": 0, "unreachable": 0,
             "dominated": 0, "clustered": 0, "corridor": 0, "repaired": 0}
    with span("reduce.pass", level=cfg.level, sites_in=m):
        if cfg.zero_award:
            dropped = keep & (sites.awards <= 0.0)
            keep &= ~dropped
            stats["zero_award"] = int(dropped.sum())
        if cfg.unreachable and energy is not None:
            stats["unreachable"] = _drop_unreachable(sites, keep, energy)
        aggressive = cfg.dominated or cfg.cluster or cfg.corridor
        safe_keep = keep.copy() if aggressive else keep
        if cfg.dominated:
            with span("reduce.dominated"):
                stats["dominated"] = _drop_dominated(sites, keep)
        if cfg.cluster:
            with span("reduce.cluster"):
                stats["clustered"] = _drop_clustered(sites, keep, cfg)
        if cfg.corridor:
            with span("reduce.corridor",
                      seeded=bool(corridor_seed is not None
                                  and len(corridor_seed))):
                stats["corridor"] = _drop_off_corridor(
                    sites, keep, cfg, seed_points=corridor_seed)
        if aggressive:
            stats["repaired"] = _repair_coverage(sites, keep, safe_keep)
    survivors = np.flatnonzero(keep)
    stats["sites_out"] = int(len(survivors))
    return ReducedSites(
        points=sites.points[survivors],
        cov_matrix=sites.cov_matrix[survivors],
        awards=sites.awards[survivors],
        hover_times=sites.hover_times[survivors],
        network=sites.network, radio=sites.radio, delta=sites.delta,
        survivors=survivors, n_original=m, reduction=cfg, stats=stats)


# -- Safe stages --------------------------------------------------------- #


def _drop_unreachable(sites: HoveringSites, keep: np.ndarray,
                      energy: EnergyModel) -> int:
    """Drop sites whose depot out-and-back travel alone exceeds E.

    Any closed tour visiting ``s`` is at least ``2·d(depot, s)`` long, so
    the planners' feasibility test (Eq. 9's travel term against ``E`` with
    the shared 1e-9 slack) rejects ``s`` in every round: the elimination
    is plan-preserving.
    """
    d0 = np.linalg.norm(sites.points - sites.network.depot[None, :], axis=1)
    dropped = keep & (2.0 * d0 * energy.travel_cost_per_meter
                      > energy.capacity + _FEAS_TOL)
    keep &= ~dropped
    return int(dropped.sum())


# -- Aggressive stages --------------------------------------------------- #


def _kept_coverage(sites: HoveringSites, keep: np.ndarray):
    """Sparse gram-product helpers over the kept rows only.

    Returns ``(kept_idx, A, sizes)`` where ``A`` is the kept-row coverage
    as a scipy CSR matrix and ``sizes`` its per-row coverage counts.
    """
    from scipy import sparse
    kept_idx = np.flatnonzero(keep)
    A = sparse.csr_matrix(sites.cov_matrix[kept_idx].astype(np.int32))
    sizes = np.diff(A.indptr)
    return kept_idx, A, sizes


def _iter_gram_chunks(A):
    """Yield ``(row_offset, chunk @ A.T)`` of the coverage gram product.

    The full ``A @ A.T`` intersection-count matrix is sparse but its nnz
    grows with site density squared; chunking the left operand bounds the
    live buffer to ``_GRAM_CHUNK`` rows at a time.
    """
    k = A.shape[0]
    at = A.T.tocsc()
    for start in range(0, k, _GRAM_CHUNK):
        # repro: allow[hot-path-purity] -- sparse CSR product, nnz-bounded
        # by chunk x mean-overlap; never a dense (m, m) gram matrix.
        yield start, (A[start:start + _GRAM_CHUNK] @ at).tocsr()


def _drop_dominated(sites: HoveringSites, keep: np.ndarray) -> int:
    """Drop sites whose coverage set is a subset of another kept site's.

    Evaluated against the stage-entry ``keep`` mask, so the outcome is
    independent of iteration order (subset domination is transitive:
    if the dominator is itself dropped, its own dominator still covers
    the dominated site).  Equal coverage sets keep the lowest index.
    """
    kept_idx, A, sizes = _kept_coverage(sites, keep)
    k = len(kept_idx)
    if k == 0:
        return 0
    dominated = np.zeros(k, dtype=bool)
    for offset, gram in _iter_gram_chunks(A):
        rows = offset + np.repeat(np.arange(gram.shape[0]),
                                  np.diff(gram.indptr))
        cols = gram.indices
        inter = gram.data
        subset = inter == sizes[rows]          # C(row) ⊆ C(col)
        wins = (sizes[cols] > sizes[rows]) \
            | ((sizes[cols] == sizes[rows]) & (cols < rows))
        hit = subset & wins & (rows != cols)
        dominated[rows[hit]] = True
    keep[kept_idx[dominated]] = False
    return int(dominated.sum())


def _drop_clustered(sites: HoveringSites, keep: np.ndarray,
                    cfg: SiteReduction) -> int:
    """Collapse near-duplicate site groups to one representative each.

    Two kept sites are *near-duplicates* when their coverage-set Jaccard
    is at least ``cluster_jaccard`` and they sit within
    ``cluster_radius_factor``·δ of each other.  Greedy single-link
    grouping in ascending index order (each unassigned site seeds a
    cluster and claims its unassigned near-duplicates); the
    representative is the member with the largest award, ties to the
    lowest index.  Deterministic by construction.
    """
    kept_idx, A, sizes = _kept_coverage(sites, keep)
    k = len(kept_idx)
    if k == 0:
        return 0
    points = sites.points[kept_idx]
    radius = cfg.cluster_radius_factor * sites.delta
    pair_rows = []
    pair_cols = []
    for offset, gram in _iter_gram_chunks(A):
        rows = offset + np.repeat(np.arange(gram.shape[0]),
                                  np.diff(gram.indptr))
        cols = gram.indices
        inter = gram.data.astype(float)
        union = sizes[rows] + sizes[cols] - inter
        close = (np.linalg.norm(points[rows] - points[cols], axis=1)
                 <= radius)
        hit = (rows != cols) & close \
            & (inter >= cfg.cluster_jaccard * union - 1e-12)
        pair_rows.append(rows[hit])
        pair_cols.append(cols[hit])
    rows = np.concatenate(pair_rows) if pair_rows else np.empty(0, int)
    cols = np.concatenate(pair_cols) if pair_cols else np.empty(0, int)
    order = np.lexsort((cols, rows))           # stable, canonical pair order
    rows, cols = rows[order], cols[order]
    indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=k), out=indptr[1:])

    awards = sites.awards[kept_idx]
    assigned = np.zeros(k, dtype=bool)
    drop = np.zeros(k, dtype=bool)
    for j in range(k):
        if assigned[j]:
            continue
        assigned[j] = True
        neighbors = cols[indptr[j]:indptr[j + 1]]
        members = [j]
        for i in neighbors:
            if not assigned[i]:
                assigned[i] = True
                members.append(int(i))
        if len(members) == 1:
            continue
        member_arr = np.array(members, dtype=int)
        rep = member_arr[int(np.argmax(awards[member_arr]))]
        drop[member_arr] = True
        drop[rep] = False
    keep[kept_idx[drop]] = False
    return int(drop.sum())


def _drop_off_corridor(sites: HoveringSites, keep: np.ndarray,
                       cfg: SiteReduction,
                       seed_points: Optional[np.ndarray] = None) -> int:
    """Keep the corridor of a cheap tour over a set-cover skeleton.

    The skeleton is a greedy max-residual-award set cover of the kept
    sites (first-argmax ties, i.e. lowest index); a nearest-neighbour +
    2-opt tour over depot + skeleton is the *corridor*.  Non-skeleton
    sites survive only when their cheapest-insertion detour into that
    tour is within ``corridor_budget_factor``·R0 metres — the Krishnan
    et al. reduction with a distance-denominated budget, so every
    capacity variant of a batch column computes the same survivor set.

    With *seed_points* (the δ-continuation warm start) the skeleton step
    is skipped entirely: the corridor tour is built over depot + the
    seed points — the coarser grid's planned hover stops — and every
    kept site is tested against it (the coverage-repair step still
    restores any sensor the seeded corridor would orphan).
    """
    kept_idx = np.flatnonzero(keep)
    k = len(kept_idx)
    if k <= 2:
        return 0
    points = sites.points[kept_idx]
    if seed_points is not None and len(seed_points):
        in_skeleton = np.zeros(k, dtype=bool)
        corridor_pts = np.vstack([sites.network.depot[None, :],
                                  np.asarray(seed_points, dtype=float)])
    else:
        cov = sites.cov_matrix[kept_idx]
        csr = SparseCoverage.from_matrix(cov)
        volumes = sites.network.volumes.astype(float).copy()
        res_award = cov @ volumes
        in_skeleton = np.zeros(k, dtype=bool)
        while True:
            j = int(np.argmax(res_award))
            if res_award[j] <= _AWARD_TOL:
                break
            in_skeleton[j] = True
            drained = csr.sensors_of(j)
            for v in drained:
                if volumes[v] > 0.0:
                    res_award[csr.sites_of(v)] -= volumes[v]
                    volumes[v] = 0.0

        skeleton = np.flatnonzero(in_skeleton)
        if len(skeleton) == k:
            return 0
        corridor_pts = np.vstack([sites.network.depot[None, :],
                                  points[skeleton]])
    # repro: allow[hot-path-purity] -- (skeleton+1)^2 only, not (m, m)
    dist = pairwise_distances(corridor_pts)
    tour = nearest_neighbor_tour(dist, start=0)
    tour = two_opt(tour, dist)
    tour_pts = corridor_pts[tour]

    others = np.flatnonzero(~in_skeleton)
    deltas = _cheapest_insertion_deltas(points[others], tour_pts)
    budget = cfg.corridor_budget_factor * sites.radio.coverage_radius
    dropped = others[deltas > budget + _FEAS_TOL]
    keep[kept_idx[dropped]] = False
    return int(len(dropped))


def _cheapest_insertion_deltas(site_points: np.ndarray,
                               tour_points: np.ndarray) -> np.ndarray:
    """Min tour-length increase of inserting each site into the closed tour.

    The (candidates, |corridor|) distance block is computed once per
    reduction, with |corridor| bounded by the set-cover skeleton size —
    not the (m, n) per-round temporary the hot-path contract bans.
    """
    if len(tour_points) == 1:
        return 2.0 * cross_distances(site_points, tour_points)[:, 0]
    # repro: allow[hot-path-purity] -- (survivors, skeleton) block, once
    # per reduction; the skeleton is set-cover sized, not m-sized.
    d = cross_distances(site_points, tour_points)
    nxt = np.roll(np.arange(len(tour_points)), -1)
    edge_len = np.linalg.norm(tour_points[nxt] - tour_points, axis=1)
    cand = d + d[:, nxt] - edge_len[None, :]
    return cand.min(axis=1)


def _repair_coverage(sites: HoveringSites, keep: np.ndarray,
                     safe_keep: np.ndarray) -> int:
    """Re-add the best dropped site for any sensor the heuristics orphaned.

    A sensor coverable at the end of the safe stages must stay coverable:
    for each such sensor with no surviving coverer (ascending sensor
    order), re-add the ``safe_keep`` site covering it with the largest
    award (ties to the lowest index, ``argmax`` over an ascending
    candidate list being first-match).
    """
    n = sites.network.n_nodes
    if n == 0:
        return 0
    covered_now = sites.cov_matrix[keep].any(axis=0) if keep.any() \
        else np.zeros(n, dtype=bool)
    coverable = sites.cov_matrix[safe_keep].any(axis=0) if safe_keep.any() \
        else np.zeros(n, dtype=bool)
    repaired = 0
    csr = sites.csr
    for v in np.flatnonzero(coverable & ~covered_now):
        if covered_now[v]:
            continue                     # repaired by an earlier re-add
        candidates = csr.sites_of(v)
        candidates = candidates[safe_keep[candidates]]
        best = candidates[int(np.argmax(sites.awards[candidates]))]
        keep[best] = True
        covered_now[csr.sensors_of(best)] = True
        repaired += 1
    return repaired


__all__ = ["SiteReduction", "ReducedSites", "reduce_sites",
           "resolve_reduction", "attach_reduction_meta",
           "REDUCTION_LEVELS"]
