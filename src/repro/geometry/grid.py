"""δ-grid partition of the monitoring region (paper §IV-A).

The paper makes the set of hovering locations finite by partitioning the
region into ``M`` squares of edge length δ and letting the UAV hover only at
square centres.  :class:`GridPartition` materialises exactly that: it
enumerates square centres and maps arbitrary points to their containing
square.  Pruning the candidate set to squares whose centre covers at least
one sensor (the paper's bound ``M <= (pi*R0^2/delta^2 + 1)*|V|`` assumes
it) is :func:`repro.core.hovering.build_hovering_sites`'s job: it visits
only the squares in each sensor's ``R0`` window, read off :meth:`axes`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.region import Region
from repro.utils.errors import InvalidParameterError
from repro.utils.validation import check_points_array, check_positive

#: Most squares a :class:`GridPartition` may hold (the δ floor).
MAX_SQUARES = 10**7


@dataclass(frozen=True)
class GridPartition:
    """Partition of a :class:`Region` into squares of edge length ``delta``.

    Squares are indexed row-major: square ``(i, j)`` occupies
    ``[xmin + j*delta, xmin + (j+1)*delta] x [ymin + i*delta, ...]`` and has
    flat index ``i * ncols + j``.  When the region side is not an exact
    multiple of δ, the last row/column of squares sticks out past the region
    boundary (their centres may lie outside); this matches the paper's
    "partition into M squares" without special-casing the border.

    Attributes
    ----------
    region:
        The rectangle being partitioned.
    delta:
        Square edge length in metres (> 0).  δ has a floor: the grid may
        hold at most :data:`MAX_SQUARES` squares (``nrows * ncols``), the
        160 MB of ``float64`` centres :meth:`centers` then builds.  On
        the paper's 1 km square that is δ ≈ 0.32 m; a finer δ raises
        :class:`~repro.utils.errors.InvalidParameterError` rather than
        running out of memory.
    """

    region: Region
    delta: float

    def __post_init__(self) -> None:
        check_positive(self.delta, "delta")
        if self.delta > max(self.region.width, self.region.height):
            # Still legal (a single square covers everything) but worth a
            # defensive check against accidental unit mistakes.
            if self.delta > 10 * max(self.region.width, self.region.height):
                raise InvalidParameterError(
                    f"delta={self.delta} is more than 10x the region extent; "
                    "this is almost certainly a unit error")
        if self.num_squares > MAX_SQUARES:
            raise InvalidParameterError(
                f"delta={self.delta} splits the region into "
                f"{self.num_squares} squares, more than the "
                f"{MAX_SQUARES} a grid may hold; use a coarser delta")

    @property
    def ncols(self) -> int:
        """Number of squares along x."""
        return int(np.ceil(self.region.width / self.delta))

    @property
    def nrows(self) -> int:
        """Number of squares along y."""
        return int(np.ceil(self.region.height / self.delta))

    @property
    def num_squares(self) -> int:
        """Total number of squares ``M = nrows * ncols``."""
        return self.nrows * self.ncols

    def axes(self) -> tuple:
        """``(xs, ys)``: the centre x of every column and y of every row.

        Square ``(i, j)`` has centre ``(xs[j], ys[i])``; :meth:`centers`
        and :func:`~repro.core.hovering.build_hovering_sites` both read
        their coordinates from here, so they are the same floats.
        """
        half = self.delta / 2.0
        xs = self.region.xmin + half + self.delta * np.arange(self.ncols)
        ys = self.region.ymin + half + self.delta * np.arange(self.nrows)
        return xs, ys

    def centers(self) -> np.ndarray:
        """Centres of all squares as an ``(M, 2)`` array in flat-index order."""
        xs, ys = self.axes()
        gx, gy = np.meshgrid(xs, ys)  # gy varies along rows (i), gx along cols (j)
        return np.column_stack([gx.ravel(), gy.ravel()])

    def flat_index(self, points) -> np.ndarray:
        """Flat square index for each of ``(n, 2)`` *points*.

        Points outside the region are clamped to the border squares, matching
        how a depot slightly outside the grid is snapped in the planners.
        """
        pts = check_points_array(points, "points")
        col = np.floor((pts[:, 0] - self.region.xmin) / self.delta).astype(int)
        row = np.floor((pts[:, 1] - self.region.ymin) / self.delta).astype(int)
        col = np.clip(col, 0, self.ncols - 1)
        row = np.clip(row, 0, self.nrows - 1)
        return row * self.ncols + col

    def center_of(self, flat_idx) -> np.ndarray:
        """Centre coordinates of squares given by *flat_idx* (scalar or array)."""
        idx = np.atleast_1d(np.asarray(flat_idx, dtype=int))
        if (idx < 0).any() or (idx >= self.num_squares).any():
            raise InvalidParameterError(
                f"flat index out of range [0, {self.num_squares})")
        row, col = np.divmod(idx, self.ncols)
        half = self.delta / 2.0
        out = np.column_stack([
            self.region.xmin + half + self.delta * col,
            self.region.ymin + half + self.delta * row,
        ])
        return out if np.ndim(flat_idx) else out[0]


__all__ = ["GridPartition", "MAX_SQUARES"]
