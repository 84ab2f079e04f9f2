"""Multi-polynomial density surfaces (Section 6.4).

A single global polynomial cannot track a highly skewed density surface, so
the PA method tiles the domain with a ``g x g`` macro grid and keeps an
independent total-degree-``k`` Chebyshev expansion per tile, each over its
own normalized ``[-1, 1]^2`` frame.  :class:`GridSpec` owns the coordinate
mapping; :class:`ChebSurface` wraps the ``(g, g, k+1, k+1)`` coefficient
block of one timestamp and provides evaluation and dense-region extraction in
world coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..core.errors import InvalidParameterError
from ..core.geometry import Rect
from ..core.regions import RegionSet
from .bnb import BnBResult, dense_boxes_grid
from .cheb1d import chebyshev_values
from .cheb2d import coefficient_count, evaluate, evaluate_tiles
from .delta import delta_coefficients

__all__ = ["GridSpec", "ChebSurface"]


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the ``g x g`` polynomial tiling of ``domain``."""

    domain: Rect
    g: int
    k: int

    def __post_init__(self) -> None:
        if self.g < 1:
            raise InvalidParameterError(f"grid factor g must be >= 1, got {self.g}")
        if self.k < 0:
            raise InvalidParameterError(f"degree k must be >= 0, got {self.k}")
        if self.domain.is_empty():
            raise InvalidParameterError("domain must have positive area")

    @property
    def cell_width(self) -> float:
        return self.domain.width / self.g

    @property
    def cell_height(self) -> float:
        return self.domain.height / self.g

    def cell_rect(self, i: int, j: int) -> Rect:
        x1 = self.domain.x1 + i * self.cell_width
        y1 = self.domain.y1 + j * self.cell_height
        return Rect(x1, y1, x1 + self.cell_width, y1 + self.cell_height)

    def cell_of(self, x: float, y: float) -> Tuple[int, int]:
        i = int((x - self.domain.x1) / self.cell_width)
        j = int((y - self.domain.y1) / self.cell_height)
        return (min(max(i, 0), self.g - 1), min(max(j, 0), self.g - 1))

    def to_normalized_x(self, i: int, x) -> np.ndarray:
        """World x -> normalized coordinate within column ``i``."""
        x1 = self.domain.x1 + i * self.cell_width
        return 2.0 * (np.asarray(x, dtype=float) - x1) / self.cell_width - 1.0

    def to_normalized_y(self, j: int, y) -> np.ndarray:
        y1 = self.domain.y1 + j * self.cell_height
        return 2.0 * (np.asarray(y, dtype=float) - y1) / self.cell_height - 1.0

    def from_normalized(self, i: int, j: int, nx: float, ny: float) -> Tuple[float, float]:
        x1 = self.domain.x1 + i * self.cell_width
        y1 = self.domain.y1 + j * self.cell_height
        return (
            x1 + (nx + 1.0) / 2.0 * self.cell_width,
            y1 + (ny + 1.0) / 2.0 * self.cell_height,
        )

    def coefficients_memory_bytes(self, window: int) -> int:
        """A ring of ``window + 1`` timestamps: ``(W + 1) g^2 (k+1)(k+2)/2``
        8-byte floats.  The paper's figure, ``H g^2 (k+1)(k+2)/2``, keeps
        the whole horizon; PA stores only the query window."""
        return (window + 1) * self.g * self.g * coefficient_count(self.k) * 8

    def zero_coefficients(self) -> np.ndarray:
        return np.zeros((self.g, self.g, self.k + 1, self.k + 1))


class ChebSurface:
    """One timestamp's approximated density surface.

    ``coeffs`` has shape ``(g, g, k+1, k+1)``; the surface may share storage
    with a maintainer's ring buffer (mutations through :meth:`add_rect`
    write straight through, which is what the tests exploit).
    """

    def __init__(self, spec: GridSpec, coeffs: np.ndarray) -> None:
        expected = (spec.g, spec.g, spec.k + 1, spec.k + 1)
        if coeffs.shape != expected:
            raise InvalidParameterError(
                f"coefficient block has shape {coeffs.shape}, expected {expected}"
            )
        self.spec = spec
        self.coeffs = coeffs

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def density_at(self, x: float, y: float) -> float:
        """Approximated density at a world point."""
        i, j = self.spec.cell_of(x, y)
        nx = self.spec.to_normalized_x(i, np.array([x]))
        ny = self.spec.to_normalized_y(j, np.array([y]))
        return float(evaluate(self.coeffs[i, j], nx, ny)[0])

    def density_grid(self, resolution: int) -> np.ndarray:
        """Sample the surface on a ``resolution x resolution`` world grid.

        Sample points are cell centres of the uniform grid over the domain;
        returns values indexed ``[ix, iy]``.
        """
        if resolution < 1:
            raise InvalidParameterError("resolution must be >= 1")
        g = self.spec.g
        # Both axes share one sampling pattern in tile units.  Tiles own
        # ``per`` or ``per - 1`` samples each; padding every tile to ``per``
        # makes the evaluation one batched contraction over all g^2 tiles,
        # and ``keep`` picks the real samples back out in order.
        at = (np.arange(resolution) + 0.5) * (g / resolution)
        tile = at.astype(int)
        first = np.searchsorted(tile, np.arange(g))
        per = int(np.bincount(tile, minlength=g).max())
        keep = tile * per + (np.arange(resolution) - first[tile])
        z = np.zeros(g * per)
        z[keep] = 2.0 * (at - tile) - 1.0
        basis = chebyshev_values(self.spec.k, z).T.reshape(g, per, -1)
        values = evaluate_tiles(self.coeffs, basis[:, None], basis[None, :])
        return values.transpose(0, 2, 1, 3).reshape(g * per, g * per)[np.ix_(keep, keep)]

    # ------------------------------------------------------------------
    # direct increments (tests / offline loading)
    # ------------------------------------------------------------------
    def add_rect(self, rect: Rect, height: float) -> None:
        """Add ``height * 1[rect]`` to the surface (closed-form, per tile)."""
        clipped = rect.intersection(self.spec.domain)
        if clipped.is_empty():
            return
        i0, j0 = self.spec.cell_of(clipped.x1, clipped.y1)
        # The high corner may sit exactly on a tile boundary; nudge inward.
        eps_x = self.spec.cell_width * 1e-12
        eps_y = self.spec.cell_height * 1e-12
        i1, j1 = self.spec.cell_of(clipped.x2 - eps_x, clipped.y2 - eps_y)
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                tile = self.spec.cell_rect(i, j)
                overlap = clipped.intersection(tile)
                if overlap.is_empty():
                    continue
                nx1 = float(self.spec.to_normalized_x(i, overlap.x1))
                nx2 = float(self.spec.to_normalized_x(i, overlap.x2))
                ny1 = float(self.spec.to_normalized_y(j, overlap.y1))
                ny2 = float(self.spec.to_normalized_y(j, overlap.y2))
                self.coeffs[i, j] += delta_coefficients(
                    self.spec.k, nx1, nx2, ny1, ny2, height
                )

    def add_object(self, x: float, y: float, l: float) -> None:
        """Convenience: the density increment of one object (see Eq. 2)."""
        half = l / 2.0
        self.add_rect(Rect(x - half, y - half, x + half, y + half), 1.0 / (l * l))

    def remove_object(self, x: float, y: float, l: float) -> None:
        half = l / 2.0
        self.add_rect(Rect(x - half, y - half, x + half, y + half), -1.0 / (l * l))

    # ------------------------------------------------------------------
    # dense-region extraction
    # ------------------------------------------------------------------
    def dense_regions(self, rho: float, md: int = 512) -> Tuple[RegionSet, BnBResult]:
        """World dense regions: per-tile bound, then dense leaf evaluation.

        ``md`` is the paper's global evaluation-grid resolution ``m_d``; the
        per-tile leaf edge is the first dyadic fraction of the tile that is
        ``<= 2 g / m_d`` in normalized units (never coarser than a whole
        tile), so the grid actually evaluated has ``g * 2^ceil(log2(m_d / g))``
        cells per axis — 640, not 512, at the defaults.
        """
        if md < self.spec.g:
            raise InvalidParameterError(
                f"m_d ({md}) must be at least the polynomial grid factor g ({self.spec.g})"
            )
        totals = dense_boxes_grid(self.coeffs, rho, 2.0 * self.spec.g / md)
        # Column runs of a raster are disjoint by construction, so
        # downstream area() is a plain sum.
        domain = self.spec.domain
        leaves = totals.mask.shape[0]
        bounds = totals.cells * np.tile([domain.width / leaves, domain.height / leaves], 2)
        bounds += (domain.x1, domain.y1, domain.x1, domain.y1)
        return RegionSet.from_bounds(bounds, disjoint=True), totals
