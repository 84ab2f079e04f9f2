"""Raster-based region measurement for large answer sets.

The exact coordinate-compression algebra of :class:`~repro.core.regions.
RegionSet` is O(|edges|^2) cells and becomes expensive when answers contain
tens of thousands of rectangles (typical for FR/PA on large datasets).  The
experiment harness therefore measures accuracy on a fixed fine raster: both
the exact and the reported region are painted onto the same ``resolution x
resolution`` boolean grid and the ratios of Section 7.2 are computed from
cell counts.

With the default 2048-cell resolution over the 1000-mile domain a cell is
~0.5 miles on edge while the smallest reportable feature is ``l/2 >= 15``
miles, so discretisation shifts the ratios by well under a percentage point
(the test suite cross-checks raster and exact measures on small inputs).
"""

from __future__ import annotations

import numpy as np

from ..core.errors import InvalidParameterError
from ..core.geometry import Rect
from ..core.regions import RegionSet
from .accuracy import AccuracyReport

__all__ = ["RasterMeasure"]


class RasterMeasure:
    """Paints regions on a shared grid and measures boolean combinations."""

    def __init__(self, domain: Rect, resolution: int = 2048) -> None:
        if resolution < 1:
            raise InvalidParameterError(f"resolution must be >= 1, got {resolution}")
        if domain.is_empty():
            raise InvalidParameterError("domain must have positive area")
        self.domain = domain
        self.resolution = resolution
        self._dx = domain.width / resolution
        self._dy = domain.height / resolution
        self.cell_area = self._dx * self._dy

    def rasterize(self, region: RegionSet) -> np.ndarray:
        """Boolean occupancy of ``region`` (cells marked by centre membership)."""
        n = self.resolution
        mask = np.zeros((n, n), dtype=bool)
        # A cell centre x0 + (i + 0.5) dx lies in [x1, x2) iff
        # i in [ceil((x1-x0)/dx - 0.5), ceil((x2-x0)/dx - 0.5)): all four
        # index columns in one expression, clipped to the grid.
        origin = np.array([self.domain.x1, self.domain.y1] * 2)
        step = np.array([self._dx, self._dy] * 2)
        index = np.ceil((region.bounds - origin) / step - 0.5).astype(np.int64)
        for ix1, iy1, ix2, iy2 in np.clip(index, 0, n).tolist():
            mask[ix1:ix2, iy1:iy2] = True
        return mask

    def area(self, region: RegionSet) -> float:
        return float(self.rasterize(region).sum()) * self.cell_area

    def accuracy(self, exact: RegionSet, reported: RegionSet) -> AccuracyReport:
        """Section 7.2 ratios measured on the shared raster."""
        m_exact = self.rasterize(exact)
        m_reported = self.rasterize(reported)
        exact_cells = int(m_exact.sum())
        reported_cells = int(m_reported.sum())
        overlap_cells = int((m_exact & m_reported).sum())
        exact_area = exact_cells * self.cell_area
        reported_area = reported_cells * self.cell_area
        overlap_area = overlap_cells * self.cell_area
        spurious = reported_cells - overlap_cells
        missed = exact_cells - overlap_cells
        if exact_cells == 0:
            r_fp = 0.0 if spurious == 0 else float("inf")
            r_fn = 0.0
        else:
            r_fp = spurious / exact_cells
            r_fn = missed / exact_cells
        return AccuracyReport(
            r_fp=r_fp,
            r_fn=r_fn,
            exact_area=exact_area,
            reported_area=reported_area,
            overlap_area=overlap_area,
        )
