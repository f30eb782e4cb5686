"""Candidate hovering locations (paper §III-B, Eqs. 1–2 and 6–7).

The monitoring region is partitioned into δ-squares; the UAV may hover at
any square centre.  Squares whose centre covers no sensor are pruned (they
can never contribute award), which keeps the candidate count linear in
``|V|`` exactly as the paper's §IV-A bound argues.

:class:`HoveringSites` bundles, for each surviving candidate ``s_j``:

* its centre coordinates,
* the coverage set ``C(s_j)`` (sensor indices within ``R0``),
* the award ``p(s_j) = sum of D_v over C(s_j)`` (Eq. 6),
* the full-collection hover time ``t(s_j) = max D_v / B`` (Eq. 7).

Planners that take prebuilt sites check them with
:func:`check_prebuilt_sites` before trusting them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from repro.geometry.coverage import CoverageIndex, SparseCoverage
from repro.geometry.grid import GridPartition
from repro.network.sensor_network import SensorNetwork
from repro.radio.link import RadioModel
from repro.utils.errors import InvalidParameterError
from repro.utils.validation import check_positive


@dataclass
class HoveringSites:
    """Candidate hovering locations with coverage, awards, and hover times.

    Attributes
    ----------
    points:
        ``(m, 2)`` candidate centre coordinates (depot NOT included).
    cov_matrix:
        ``(m, n)`` boolean coverage matrix over the network's sensors.
    awards:
        ``p(s_j)`` — total coverable data per site, MB (Eq. 6).
    hover_times:
        ``t(s_j)`` — full-collection sojourn per site, seconds (Eq. 7).
    network, radio, delta:
        The inputs the sites were derived from (kept for provenance and
        for the planners' recomputations).
    """

    points: np.ndarray
    cov_matrix: np.ndarray
    awards: np.ndarray
    hover_times: np.ndarray
    network: SensorNetwork
    radio: RadioModel
    delta: float

    @property
    def n_sites(self) -> int:
        """Number of candidate hovering locations ``m``."""
        return len(self.points)

    @cached_property
    def csr(self) -> SparseCoverage:
        """The coverage matrix as a read-only CSR index, built on first use.

        Every planner kernel over these sites shares this one index.
        """
        return SparseCoverage.from_matrix(self.cov_matrix)

    def coverage_list(self, site: int) -> np.ndarray:
        """Sorted sensor indices in ``C(s_site)``."""
        if not (0 <= site < self.n_sites):
            raise InvalidParameterError(
                f"site index {site} out of range [0, {self.n_sites})")
        return np.flatnonzero(self.cov_matrix[site])

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


def build_hovering_sites(network: SensorNetwork, radio: RadioModel,
                         delta: float, *, prune: bool = True,
                         grid: Optional[GridPartition] = None) -> HoveringSites:
    """Enumerate candidate hovering locations for *network* on a δ-grid.

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
    if prune:
        centers = grid.candidate_centers(network.positions, r0)
    else:
        centers = grid.centers()
    index = CoverageIndex(network.positions, r0)
    cov = index.matrix(centers)
    awards = cov @ network.volumes
    upload_times = network.volumes / radio.bandwidth
    masked = np.where(cov, upload_times[None, :], 0.0)
    # Guard on the reduced axis: a zero-sensor network yields (m, 0).
    if masked.shape[1] == 0:
        hover_times = np.zeros(len(centers))
    else:
        hover_times = masked.max(axis=1)
    return HoveringSites(points=centers, cov_matrix=cov, awards=awards,
                         hover_times=hover_times, network=network,
                         radio=radio, delta=float(delta))


__all__ = ["HoveringSites", "build_hovering_sites",
           "check_prebuilt_sites"]
