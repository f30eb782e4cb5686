"""The auxiliary energy-weighted graph ``G_s`` (paper §IV-A, Eqs. 8–9).

Node 0 is the depot; nodes ``1..m`` are the hovering sites.  Edge weights

    w2(s_j, s_k) = (w1(s_j) + w1(s_k)) / 2 + l(s_j, s_k) * eta_t / speed

split each endpoint's hovering energy ``w1 = t * eta_h`` evenly across its
two incident tour edges, so the total weight of any closed tour equals the
tour's true energy (hover + travel) exactly — the observation Theorem 2's
feasibility argument rests on.  Lemma 1 proves ``w2`` is metric; the
property test suite re-verifies that on random instances.

``w2`` is a closed form over the node points and ``w1``, so the graph
never stores the ``(m+1, m+1)`` matrix: :class:`W2Costs` evaluates rows,
column-subset blocks, pairs and tour costs on demand (O(m) memory
plus the rows it has served).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.hovering import HoveringSites
from repro.energy.model import EnergyModel
from repro.geometry.distance import cross_distances
from repro.obs.tracer import span
from repro.orienteering.problem import ConflictLists
from repro.utils.errors import InvalidParameterError
from repro.utils.rng import as_rng
from repro.utils.rowstore import RowStore
from repro.utils.validation import check_non_negative


class W2Costs:
    """Eq. 9's edge weights as a cost operator, evaluated on demand.

    Implements :class:`repro.orienteering.problem.CostOperator` over
    *points*, *w1* and *rate* (``eta_t / speed``, J/m).  Every entry is
    ``(w1_i + w1_j) * 0.5 + l(i, j) * rate`` with a zero diagonal,
    computed with the same elementwise operations in the same order as
    an in-place dense ``(m+1, m+1)`` build, so rows, pairs and tour
    costs are bitwise identical to that matrix — and exactly symmetric,
    because IEEE subtraction and addition are.

    Each row is evaluated once and kept (by node) for the operator's
    lifetime; the artifact cache shares one graph across a capacity
    sweep's cells, so those cells compute every tour node's row once.
    The inputs are shared with the owning :class:`AuxiliaryGraph`, not
    copied: treat them as read-only once rows have been served.
    """

    def __init__(self, points: np.ndarray, w1: np.ndarray,
                 rate: float) -> None:
        self.points = points
        self.w1 = w1
        self.rate = rate
        self._rows = RowStore(len(points), len(points))

    @property
    def n_nodes(self) -> int:
        return len(self.points)

    def check(self) -> None:
        """O(m) validation: every ``w2`` is then finite and ``>= 0``.

        Finite points, finite ``w1 >= 0`` and a finite ``rate >= 0``
        make every entry ``>= 0``; the largest possible entry — twice
        the largest ``w1`` halved, plus the bounding-box diagonal times
        the rate, in the same rounded operations — bounds every entry
        from above (each operation is monotone), so one finite worst case
        rules out overflow everywhere.  Symmetry holds by construction.
        """
        pts, w1 = self.points, self.w1
        if pts.ndim != 2 or pts.shape[1] != 2 or w1.shape != (len(pts),):
            raise InvalidParameterError(
                f"graph needs (n, 2) points and n hover energies, got "
                f"{pts.shape} and {w1.shape}")
        if not np.isfinite(pts).all():
            raise InvalidParameterError("graph points must be finite")
        if not (np.isfinite(w1).all() and (w1 >= 0).all()):
            raise InvalidParameterError(
                "hover energies w1 must be finite and >= 0")
        rate = check_non_negative(self.rate, "travel cost per meter")
        if len(pts):
            with np.errstate(over="ignore", invalid="ignore"):
                dx, dy = pts.max(axis=0) - pts.min(axis=0)
                top = w1.max()
                worst = (top + top) * 0.5 + np.sqrt(dx * dx + dy * dy) * rate
            if not np.isfinite(worst):
                raise InvalidParameterError(
                    "costs must be finite and >= 0 (w2 overflows)")

    def _evaluate(self, new: np.ndarray) -> np.ndarray:
        """Rows *new* of the matrix: the dense build's in-place order."""
        dist = cross_distances(self.points[new], self.points)
        dist *= self.rate
        block = self.w1[new, None] + self.w1[None, :]
        block *= 0.5
        block += dist
        block[np.arange(len(new)), new] = 0.0
        return block

    def rows(self, idx) -> np.ndarray:
        """Fresh ``(len(idx), n)`` copy of rows *idx* (cached per node)."""
        slots = self._rows.slots(idx, self._evaluate)  # may grow the store
        return self._rows.data[slots]

    def block(self, idx, cols) -> np.ndarray:
        """Fresh ``(len(idx), len(cols))`` gather of rows *idx* at *cols*.

        Served from the cached rows: only the requested entries are
        copied, never whole rows (one flat ``take`` over the store).
        """
        slots = self._rows.slots(idx, self._evaluate)
        flat = slots[:, None] * self.n_nodes + np.asarray(cols, dtype=np.intp)
        return self._rows.data.take(flat)

    def pair(self, i, j) -> np.ndarray:
        """``w2(i, j)`` elementwise over broadcast index arrays."""
        i = np.asarray(i, dtype=np.intp)
        j = np.asarray(j, dtype=np.intp)
        pi, pj = self.points[i], self.points[j]
        dx = pi[..., 0] - pj[..., 0]
        dy = pi[..., 1] - pj[..., 1]
        dist = np.sqrt(dx * dx + dy * dy) * self.rate
        cost = (self.w1[i] + self.w1[j]) * 0.5 + dist
        return np.where(i == j, 0.0, cost)

    def tour_cost(self, tour) -> float:
        """Total ``w2`` of the closed *tour* (0 below two nodes)."""
        arr = np.asarray(tour, dtype=int)
        if len(arr) < 2:
            return 0.0
        return float(self.pair(arr, np.roll(arr, -1)).sum())


@dataclass
class AuxiliaryGraph:
    """``G_s`` for the orienteering reduction.

    Attributes
    ----------
    points:
        ``(m+1, 2)`` coordinates; row 0 is the depot.
    awards:
        Length-``m+1`` node awards; ``awards[0] = 0`` (the depot collects
        nothing).
    hover_energies:
        ``w1`` per node (joules); 0 at the depot.
    hover_times:
        ``t`` per node (seconds); 0 at the depot.
    sites:
        The underlying :class:`HoveringSites` (site ``j`` is node ``j+1``).
    energy:
        The energy model used to weight the graph.
    w2:
        The Eq. 9 edge weights (:class:`W2Costs`, derived from *points*,
        *hover_energies* and the energy model's travel rate).
    """

    points: np.ndarray
    awards: np.ndarray
    hover_energies: np.ndarray
    hover_times: np.ndarray
    sites: HoveringSites
    energy: EnergyModel
    w2: W2Costs = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.w2 = W2Costs(self.points, self.hover_energies,
                          self.energy.travel_cost_per_meter)

    @property
    def n_nodes(self) -> int:
        """Node count ``m + 1`` (depot included)."""
        return len(self.points)

    def tour_energy(self, tour) -> float:
        """Energy of a closed tour = sum of its ``w2`` edge weights."""
        return self.w2.tour_cost(tour)

    def verify_metric(self, *, n_samples: int = 200,
                      seed: int = 0, tol: float = 1e-6) -> bool:
        """Spot-check the triangle inequality on random node triples.

        Exhaustive verification is O(n^3); this sampled version is a
        cheap sanity check, while the Lemma 1 proof (and the hypothesis
        suite) covers the general case.
        """
        n = self.n_nodes
        if n < 3:
            return True
        rng = as_rng(seed)
        pair = self.w2.pair
        for _ in range(n_samples):
            i, j, k = rng.choice(n, size=3, replace=False)
            if pair(i, k) > pair(i, j) + pair(j, k) + tol:
                return False
        return True


def build_auxiliary_graph(sites: HoveringSites,
                          energy: EnergyModel) -> AuxiliaryGraph:
    """Construct ``G_s`` from hovering *sites* under *energy*.

    The travel term uses ``energy.travel_cost_per_meter`` (= eta_t / speed),
    making the edge weights joules end to end; see
    :mod:`repro.energy.model` for why this matches the paper's
    ``l * eta_t`` notation.  O(m): the weights are evaluated on demand.
    The node awards are ``sites.awards``, so the first graph over a
    sites object derives its dense coverage matrix.  Runs under an
    ``auxgraph.build`` span.
    """
    if not isinstance(energy, EnergyModel):
        raise InvalidParameterError("energy must be an EnergyModel")
    with span("auxgraph.build"):
        depot = sites.network.depot
        points = np.vstack([depot[None, :], sites.points])
        hover_times = np.concatenate([[0.0], sites.hover_times])
        w1 = hover_times * energy.hover_power
        awards = np.concatenate([[0.0], sites.awards])
        return AuxiliaryGraph(points=points, awards=awards,
                              hover_energies=w1, hover_times=hover_times,
                              sites=sites, energy=energy)


def overlap_conflicts(sites: HoveringSites) -> ConflictLists:
    """Algorithm 1's per-node conflict lists over ``G_s``'s numbering.

    Node ``j + 1`` conflicts with every other site whose coverage set
    intersects site ``j``'s; the depot (node 0) conflicts with nothing.
    Read straight off the sorted indices of the sparse coverage gram
    ``cov @ cov.T`` (coverage sets are tiny, so it holds O(m) entries)
    with the diagonal dropped — never an ``(m, m)`` array, and ``cov``
    is the sites' CSR, not the dense matrix.  The lists are validated
    here, once, into a :class:`ConflictLists`, which every orienteering
    instance built from them takes without a second check.  Runs under
    a ``conflicts.build`` span.
    """
    from scipy import sparse

    m, csr = sites.n_sites, sites.csr
    with span("conflicts.build"):
        cov = sparse.csr_matrix(
            (np.ones(csr.nnz, dtype=bool), csr.site_indices,
             csr.site_indptr), shape=(m, csr.n_sensors), copy=True)
        # repro: allow[hot-path-purity] -- sparse CSR product, nnz-bounded
        gram = (cov @ cov.T).tocsr()
        gram.eliminate_zeros()
        gram.sort_indices()
        rows = np.repeat(np.arange(m), np.diff(gram.indptr))
        off_diagonal = gram.indices != rows
        cols = gram.indices[off_diagonal].astype(np.intp) + 1
        ends = np.cumsum(np.bincount(rows[off_diagonal],
                                     minlength=m)).tolist()
        return ConflictLists([np.empty(0, dtype=np.intp),
                              *(cols[a:b] for a, b in zip([0] + ends,
                                                          ends))])


__all__ = ["AuxiliaryGraph", "W2Costs", "build_auxiliary_graph",
           "overlap_conflicts"]
