"""Candidate hovering locations (paper §III-B, Eqs. 1–2 and 6–7).

The monitoring region is partitioned into δ-squares; the UAV may hover at
any square centre.  Squares whose centre covers no sensor are pruned (they
can never contribute award), which keeps the candidate count linear in
``|V|`` exactly as the paper's §IV-A bound argues.

:class:`HoveringSites` bundles, for each surviving candidate ``s_j``:

* its centre coordinates,
* the coverage sets ``C(s_j)`` as one read-only CSR index plus its
  transpose (``csr``, a :class:`~repro.geometry.coverage.SparseCoverage`),
* the full-collection hover time ``t(s_j) = max D_v / B`` (Eq. 7),

and derives on first use, then caches, the dense ``(m, n)`` coverage
matrix ``cov_matrix`` and the award ``p(s_j) = sum of D_v over C(s_j)``
(Eq. 6), ``awards = cov_matrix @ volumes``.  Only Algorithm 1 (its
auxiliary graph's node awards), the upper bounds and the exact DP read
them; Algorithms 2/3, the baseline and the simulator never build an
``(m, n)`` array.

**The window build.**  :func:`build_hovering_sites` never enumerates the
whole grid: for every sensor it visits only the squares in its ``R0``
window — the rows and columns whose centre may lie within ``R0`` (one
spare square on each side), at most ``(2·R0/δ + 3)²`` of them, the
paper's per-sensor bound.  One test decides coverage, the one
``cKDTree.query_ball_point`` makes: a centre covers the sensors whose
``dx·dx + dy·dy`` is ``<= R0·R0``, and it survives the pruning when it
covers at least one.  A nearest-sensor distance test,
``sqrt(min d²) <= R0``, would pass every such centre (``sqrt(fl(R0·R0))
== R0`` in binary64, and sqrt is monotone), but one rounding at the
boundary would also pass a centre that covers nothing.  Centre
coordinates are read off
:meth:`~repro.geometry.grid.GridPartition.axes`, so they are the same
floats :meth:`~repro.geometry.grid.GridPartition.centers` holds.  Sensors
are walked in chunks of window rows, so the temporaries hold at most
``max(_PAIR_CHUNK, ncols)`` pairs whatever δ.  The pairs come out
sorted by (sensor, square), the transpose's own order, and one stable
sort gives the rows.  ``hover_times`` is a segment max over the CSR rows:
max does not depend on order and volumes are ``>= 0``, so it is bitwise
the dense masked max.  ``awards`` stays the dense product, because a
sequential CSR sum differs from it in the last bit on some rows.  The
KD-tree build lives on as ``tests/oracles.py::kdtree_sites``, which
pins this one bitwise.

Because the CSR is built with the sites, a sweep's artifact cache
(:class:`repro.experiments.artifacts.ArtifactCache`) builds it outside
the per-cell timer; with ``cache=False`` every planner builds its sites,
CSR included, inside its timer by design.

Planners that take prebuilt sites check them with
:func:`check_prebuilt_sites` before trusting them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from repro.geometry.coverage import SparseCoverage
from repro.geometry.grid import GridPartition
from repro.network.sensor_network import SensorNetwork
from repro.obs.tracer import span
from repro.radio.link import RadioModel
from repro.utils.errors import InvalidParameterError
from repro.utils.validation import check_positive

#: Most (centre, sensor) pairs one chunk of the window build holds (a
#: few MB of temporaries); a chunk is at least one window row.
_PAIR_CHUNK = 1 << 16


@dataclass
class HoveringSites:
    """Candidate hovering locations with coverage and hover times.

    Attributes
    ----------
    points:
        ``(m, 2)`` candidate centre coordinates (depot NOT included).
    csr:
        The coverage sets as a read-only CSR index and its transpose;
        every planner kernel over these sites shares it.
    hover_times:
        ``t(s_j)`` — full-collection sojourn per site, seconds (Eq. 7).
    network, radio, delta:
        The inputs the sites were derived from (kept for provenance and
        for the planners' recomputations).

    ``cov_matrix`` (the ``(m, n)`` boolean coverage matrix) and
    ``awards`` (Eq. 6) are derived from ``csr`` on first use and cached,
    read-only.
    """

    points: np.ndarray
    csr: SparseCoverage
    hover_times: np.ndarray
    network: SensorNetwork
    radio: RadioModel
    delta: float

    def __post_init__(self) -> None:
        m, n = len(self.points), self.network.n_nodes
        if (self.csr.n_sites, self.csr.n_sensors) != (m, n) \
                or np.shape(self.hover_times) != (m,):
            raise InvalidParameterError(
                f"sites need a ({m}, {n}) coverage index and {m} hover "
                f"times, got ({self.csr.n_sites}, {self.csr.n_sensors}) "
                f"and shape {np.shape(self.hover_times)}")

    @property
    def n_sites(self) -> int:
        """Number of candidate hovering locations ``m``."""
        return len(self.points)

    @cached_property
    def cov_matrix(self) -> np.ndarray:
        """The ``(m, n)`` boolean coverage matrix, derived from ``csr``."""
        csr = self.csr
        cov = np.zeros((csr.n_sites, csr.n_sensors), dtype=bool)
        rows = np.repeat(np.arange(csr.n_sites), np.diff(csr.site_indptr))
        cov[rows, csr.site_indices] = True
        cov.flags.writeable = False
        return cov

    @cached_property
    def awards(self) -> np.ndarray:
        """``p(s_j)`` — total coverable data per site, MB (Eq. 6)."""
        awards = self.cov_matrix @ self.network.volumes
        awards.flags.writeable = False
        return awards

    def coverage_list(self, site: int) -> np.ndarray:
        """Sorted sensor indices in ``C(s_site)``."""
        if not (0 <= site < self.n_sites):
            raise InvalidParameterError(
                f"site index {site} out of range [0, {self.n_sites})")
        return self.csr.sensors_of(site).copy()

    def residual_awards(self, residual_volumes) -> np.ndarray:
        """Awards recomputed against residual sensor volumes (vectorised).

        ``P'(s_j)`` in Eq. 11 when *residual_volumes* zeroes out collected
        sensors, and the partial-collection residual award otherwise.
        """
        rem = np.asarray(residual_volumes, dtype=float)
        if rem.shape != (self.network.n_nodes,):
            raise InvalidParameterError(
                f"residual_volumes must have shape ({self.network.n_nodes},)")
        return self.cov_matrix @ rem

    def residual_hover_times(self, residual_volumes) -> np.ndarray:
        """Per-site max residual upload time (Eq. 12's ``t'``), vectorised."""
        rem = np.asarray(residual_volumes, dtype=float)
        if rem.shape != (self.network.n_nodes,):
            raise InvalidParameterError(
                f"residual_volumes must have shape ({self.network.n_nodes},)")
        times = rem / self.radio.bandwidth
        masked = np.where(self.cov_matrix, times[None, :], 0.0)
        # Guard on the reduced axis (n sensors), not on m: with zero sensors
        # the (m, 0) max would raise even though every site's time is 0.
        if masked.shape[1] == 0:
            return np.zeros(self.n_sites)
        return masked.max(axis=1)


def check_prebuilt_sites(sites: HoveringSites, network: SensorNetwork,
                         radio: RadioModel, delta: float) -> None:
    """Reject prebuilt *sites* that were not built from these inputs.

    The sites must come from the same network (the same object, or equal
    positions, volumes and depot), the same grid edge ``delta`` and an
    equal radio.  On the artifact-cache path the network is the same
    object, so the check is O(1).

    Raises
    ------
    InvalidParameterError
        Naming the first input that does not match.
    """
    built = sites.network
    if built is not network:
        for name in ("positions", "volumes", "depot"):
            if not np.array_equal(getattr(built, name),
                                  getattr(network, name)):
                raise InvalidParameterError(
                    "prebuilt sites were built for another network: "
                    f"its {name} differ from this network's")
    if sites.delta != delta:
        raise InvalidParameterError(
            f"prebuilt sites were built with delta={sites.delta}, "
            f"not delta={delta}")
    if sites.radio != radio:
        raise InvalidParameterError(
            f"prebuilt sites were built with radio {sites.radio}, "
            f"not {radio}")


def _window(coord: np.ndarray, low: float, delta: float, count: int,
            r0: float) -> Tuple[np.ndarray, np.ndarray]:
    """First and last grid index of each coordinate's ``R0`` window.

    The squares whose centre may lie within *r0* of *coord* along one
    axis, plus one spare square on each side, clipped to ``[0, count)``;
    an empty window has ``last < first``.
    """
    half = delta / 2.0
    first = np.floor((coord - r0 - low - half) / delta) - 1.0
    last = np.ceil((coord + r0 - low - half) / delta) + 1.0
    return (np.clip(first, 0, count).astype(np.int64),
            np.clip(last, -1, count - 1).astype(np.int64))


def _window_pairs(grid: GridPartition, sensors: np.ndarray, r0: float
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """``(square, sensor)`` for the covering window pairs.

    Every square centre in every sensor's ``R0`` window is paired with
    the sensor, and the pair is kept when the centre covers the sensor:
    ``dx·dx + dy·dy <= R0·R0``.  The kept pairs are sorted by (sensor,
    flat square index).  One item per (sensor, window row) holds a whole
    row of pairs, and the items are walked in chunks of about
    :data:`_PAIR_CHUNK` pairs.
    """
    xs, ys = grid.axes()
    region, delta, ncols = grid.region, grid.delta, grid.ncols
    sx, sy = sensors[:, 0], sensors[:, 1]
    j0, j1 = _window(sx, region.xmin, delta, ncols, r0)
    i0, i1 = _window(sy, region.ymin, delta, grid.nrows, r0)
    width = np.maximum(j1 - j0 + 1, 0)
    height = np.where(width > 0, np.maximum(i1 - i0 + 1, 0), 0)
    item_v = np.repeat(np.arange(len(sensors)), height)
    item_i = i0[item_v] + np.arange(len(item_v)) \
        - np.repeat(np.cumsum(height) - height, height)
    ends = np.cumsum(width[item_v])
    r2 = r0 * r0
    kept = []
    start = 0
    while start < len(item_v):
        base = int(ends[start - 1]) if start else 0
        stop = max(int(np.searchsorted(ends, base + _PAIR_CHUNK,
                                       side="right")), start + 1)
        v, w = item_v[start:stop], width[item_v[start:stop]]
        offsets = np.cumsum(w) - w
        pv = np.repeat(v, w)
        pi = np.repeat(item_i[start:stop], w)
        pj = j0[pv] + np.arange(len(pv)) - np.repeat(offsets, w)
        dx = xs[pj] - sx[pv]
        dy = ys[pi] - sy[pv]
        covers = dx * dx + dy * dy <= r2
        kept.append((pi[covers] * ncols + pj[covers], pv[covers]))
        start = stop
    if not kept:
        none = np.empty(0, dtype=np.int64)
        return none, none
    square, sensor = (np.concatenate(parts) for parts in zip(*kept))
    return square, sensor


def build_hovering_sites(network: SensorNetwork, radio: RadioModel,
                         delta: float, *, prune: bool = True,
                         grid: Optional[GridPartition] = None) -> HoveringSites:
    """Enumerate candidate hovering locations for *network* on a δ-grid.

    Visits only the squares in each sensor's ``R0`` window (see the
    module docstring) and builds the centres, both CSR directions and
    the hover times from those pairs, under a ``hovering.build`` span
    (attrs: delta, sites, nnz).

    Parameters
    ----------
    network:
        The aggregate sensor network.
    radio:
        Uplink model supplying the coverage radius ``R0`` and bandwidth ``B``.
    delta:
        Grid square edge length (metres); the paper requires ``delta <= R0``
        for Algorithm 1, but larger values are legal (the sweep in Fig. 4
        varies δ from 5 m to 30 m with R0 = 50 m).
    prune:
        Drop squares whose centre covers no sensor (default True — this is
        what keeps the instance size linear in |V|).
    grid:
        Optional pre-built partition (must match ``network.region``).
    """
    check_positive(delta, "delta")
    if grid is None:
        assert network.region is not None
        grid = GridPartition(network.region, delta)
    r0 = radio.coverage_radius
    with span("hovering.build", delta=float(delta)) as build:
        square, sensor = _window_pairs(grid, network.positions, r0)
        if prune:
            squares = np.unique(square)
            site = np.searchsorted(squares, square)
            xs, ys = grid.axes()
            row, col = np.divmod(squares, grid.ncols)
            points = np.column_stack([xs[col], ys[row]])
        else:
            site = square
            points = grid.centers()
        m = len(points)
        csr = SparseCoverage.from_pairs(site, sensor, m, network.n_nodes)
        upload = network.volumes / radio.bandwidth
        hover_times = np.zeros(m)
        rows = np.diff(csr.site_indptr) > 0
        if rows.any():
            hover_times[rows] = np.maximum.reduceat(
                upload[csr.site_indices], csr.site_indptr[:-1][rows])
        build.set(sites=m, nnz=csr.nnz)
    return HoveringSites(points=points, csr=csr, hover_times=hover_times,
                         network=network, radio=radio, delta=float(delta))


__all__ = ["HoveringSites", "build_hovering_sites",
           "check_prebuilt_sites"]
