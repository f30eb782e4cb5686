"""Coverage queries between hovering locations and ground sensors.

The UAV at hovering location ``s_j = (x_j, y_j, H)`` covers sensor
``v_i = (x_i, y_i, 0)`` iff the ground distance is at most
``R0 = sqrt(R^2 - H^2)`` (paper Fig. 1(b)).  This module provides:

* :func:`projected_radius` — the ``R0`` law,
* :class:`CoverageIndex` — a KD-tree-backed index answering "which sensors
  does each candidate cover" in bulk,
* :func:`coverage_sets_bruteforce` — an O(n*m) reference implementation the
  tests cross-check the index against,
* :func:`coverage_matrix` — a dense boolean (candidates x sensors) matrix
  used by the vectorised planners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np
from scipy.spatial import cKDTree

from repro.utils.errors import InvalidParameterError
from repro.utils.validation import check_non_negative, check_points_array, check_positive


def projected_radius(transmission_range: float, altitude: float) -> float:
    """Ground-projected coverage radius ``R0 = sqrt(R**2 - H**2)``.

    Parameters
    ----------
    transmission_range:
        Sensor transmission range ``R`` in metres (> 0).
    altitude:
        UAV hovering altitude ``H`` in metres, with ``0 <= H <= R``
        (paper §III-B requires ``H <= R``).

    Raises
    ------
    InvalidParameterError
        If ``H > R`` — the UAV would be out of every sensor's range.
    """
    r = check_positive(transmission_range, "transmission_range")
    h = check_non_negative(altitude, "altitude")
    if h > r:
        raise InvalidParameterError(
            f"altitude H={h} exceeds transmission range R={r}; "
            "the paper requires H <= R")
    return math.sqrt(r * r - h * h)


def coverage_sets_bruteforce(candidates, sensors, radius: float) -> List[np.ndarray]:
    """Reference implementation: sensor indices covered by each candidate.

    Pure O(n*m) broadcasting; used as the oracle in property tests.
    Boundary convention: a sensor exactly at distance ``radius`` IS covered
    (the paper uses ``<=`` throughout).
    """
    cands = check_points_array(candidates, "candidates")
    sens = check_points_array(sensors, "sensors")
    check_positive(radius, "radius")
    if len(sens) == 0:
        return [np.empty(0, dtype=int) for _ in range(len(cands))]
    diff = cands[:, None, :] - sens[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    mask = d2 <= radius * radius
    return [np.flatnonzero(row) for row in mask]


def coverage_matrix(candidates, sensors, radius: float) -> np.ndarray:
    """Dense boolean matrix ``cov[c, v] = (candidate c covers sensor v)``.

    For the library's working sizes (tens of thousands of candidates x a few
    hundred sensors) the dense boolean matrix is a few megabytes and lets the
    planners compute all candidate awards with single matrix-vector products.
    """
    cands = check_points_array(candidates, "candidates")
    sens = check_points_array(sensors, "sensors")
    check_positive(radius, "radius")
    cov = np.zeros((len(cands), len(sens)), dtype=bool)
    if len(sens) == 0 or len(cands) == 0:
        return cov
    tree = cKDTree(sens)
    neighbors = tree.query_ball_point(cands, r=radius)
    for ci, idx in enumerate(neighbors):
        if idx:
            cov[ci, idx] = True
    return cov


@dataclass(frozen=True)
class SparseCoverage:
    """CSR view of a boolean coverage matrix, plus its transpose.

    Built once per :class:`~repro.core.hovering.HoveringSites` (its
    ``csr``) and read-only; the incremental planner kernel
    (:mod:`repro.core.kernel`) walks these index arrays instead of
    materialising ``(m, n)`` temporaries on every greedy step:

    * ``site_indptr`` / ``site_indices`` — row ``j`` of the matrix, i.e.
      the sorted sensor indices covered by candidate site ``j``;
    * ``sensor_indptr`` / ``sensor_indices`` — the transpose: the sorted
      site indices covering sensor ``v`` (the dirty-set propagation
      direction — "which candidates must be rescored when ``v`` drains").
    """

    n_sites: int
    n_sensors: int
    site_indptr: np.ndarray
    site_indices: np.ndarray
    sensor_indptr: np.ndarray
    sensor_indices: np.ndarray

    @classmethod
    def from_matrix(cls, cov: np.ndarray) -> "SparseCoverage":
        """Build both CSR directions from a dense boolean ``(m, n)`` matrix."""
        cov = np.asarray(cov, dtype=bool)
        if cov.ndim != 2:
            raise InvalidParameterError(
                f"coverage matrix must be 2-D, got shape {cov.shape}")
        m, n = cov.shape
        rows, cols = np.nonzero(cov)          # row-major ⇒ cols sorted per row
        site_indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=m), out=site_indptr[1:])
        tcols, trows = np.nonzero(cov.T)      # transpose walk, same trick
        sensor_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tcols, minlength=n), out=sensor_indptr[1:])
        for arr in (site_indptr, cols, sensor_indptr, trows):
            arr.flags.writeable = False
        return cls(n_sites=m, n_sensors=n,
                   site_indptr=site_indptr, site_indices=cols,
                   sensor_indptr=sensor_indptr, sensor_indices=trows)

    @property
    def nnz(self) -> int:
        """Number of (site, sensor) coverage pairs."""
        return len(self.site_indices)

    def sensors_of(self, site: int) -> np.ndarray:
        """Sorted sensor indices covered by *site* (CSR row slice)."""
        return self.site_indices[self.site_indptr[site]:
                                 self.site_indptr[site + 1]]

    def sites_of(self, sensor: int) -> np.ndarray:
        """Sorted site indices covering *sensor* (transpose row slice)."""
        return self.sensor_indices[self.sensor_indptr[sensor]:
                                   self.sensor_indptr[sensor + 1]]

    def sites_covering(self, sensors: np.ndarray) -> np.ndarray:
        """Sorted unique site indices covering any of *sensors*.

        This is the dirty set of one greedy selection: the only candidates
        whose residual award / hover time can have changed.  Deduplicated
        with an ``m``-sized mark array (O(m + hits), no sort).
        """
        sensors = np.asarray(sensors, dtype=np.int64)
        if len(sensors) == 0:
            return np.empty(0, dtype=np.int64)
        lengths = self.sensor_indptr[sensors + 1] - self.sensor_indptr[sensors]
        total = int(lengths.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        # Gather all transpose segments in one flat index expression.
        flat = np.repeat(self.sensor_indptr[sensors]
                         - np.cumsum(lengths) + lengths, lengths) \
            + np.arange(total)
        mark = np.zeros(self.n_sites, dtype=bool)
        mark[self.sensor_indices[flat]] = True
        return np.flatnonzero(mark)

    def gather(self, sites: np.ndarray) -> tuple:
        """Segment gather for a batch of site rows.

        Returns ``(flat, starts, lengths)`` where ``flat`` indexes the
        concatenated sensor lists of *sites* into ``site_indices`` and
        ``starts`` are the segment boundaries usable with ``np.add.reduceat``
        / ``np.maximum.reduceat`` (callers must mask zero-length segments).
        """
        sites = np.asarray(sites, dtype=np.int64)
        lengths = self.site_indptr[sites + 1] - self.site_indptr[sites]
        total = int(lengths.sum())
        if total == 0:
            return (np.empty(0, dtype=np.int64),
                    np.zeros(len(sites), dtype=np.int64), lengths)
        flat = np.repeat(self.site_indptr[sites]
                         - np.cumsum(lengths) + lengths, lengths) \
            + np.arange(total)
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        return self.site_indices[flat], starts, lengths


class CoverageIndex:
    """KD-tree index over sensors supporting bulk coverage queries.

    Parameters
    ----------
    sensors:
        ``(n, 2)`` ground coordinates of the sensors.
    radius:
        Coverage radius ``R0`` in metres.

    Notes
    -----
    The index is immutable after construction; planners that need residual
    data volumes track those separately and use the index only for geometry.
    """

    def __init__(self, sensors, radius: float) -> None:
        self._sensors = check_points_array(sensors, "sensors")
        self._radius = check_positive(radius, "radius")
        self._tree = cKDTree(self._sensors) if len(self._sensors) else None

    @property
    def sensors(self) -> np.ndarray:
        """The indexed sensor coordinates (read-only view)."""
        v = self._sensors.view()
        v.flags.writeable = False
        return v

    @property
    def radius(self) -> float:
        """Coverage radius ``R0``."""
        return self._radius

    def __len__(self) -> int:
        return len(self._sensors)

    def covered_by(self, candidates) -> List[np.ndarray]:
        """Sorted sensor indices covered by each of ``(m, 2)`` *candidates*."""
        cands = check_points_array(candidates, "candidates")
        if self._tree is None:
            return [np.empty(0, dtype=int) for _ in range(len(cands))]
        hits = self._tree.query_ball_point(cands, r=self._radius)
        return [np.asarray(sorted(h), dtype=int) for h in hits]

    def covered_by_single(self, point) -> np.ndarray:
        """Sensor indices covered from one hovering point ``(x, y)``."""
        return self.covered_by(np.asarray(point, dtype=float).reshape(1, 2))[0]

    def covering_candidates(self, candidates) -> np.ndarray:
        """Boolean mask over *candidates*: covers at least one sensor."""
        cands = check_points_array(candidates, "candidates")
        if self._tree is None:
            return np.zeros(len(cands), dtype=bool)
        dist, _ = self._tree.query(cands, k=1)
        return dist <= self._radius

    def matrix(self, candidates) -> np.ndarray:
        """Dense boolean coverage matrix for *candidates* (see module docs)."""
        return coverage_matrix(candidates, self._sensors, self._radius)


__all__ = [
    "projected_radius",
    "coverage_sets_bruteforce",
    "coverage_matrix",
    "CoverageIndex",
    "SparseCoverage",
]
