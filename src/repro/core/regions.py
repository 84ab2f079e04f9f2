"""Region algebra over unions of half-open rectangles.

A :class:`RegionSet` represents a (possibly overlapping, unnormalised) union
of :class:`~repro.core.geometry.Rect` values.  The PDR methods all report
their answers as ``RegionSet``s, and the accuracy metrics of the paper
(Section 7.2) require *exact* areas of unions, intersections and differences
of two such sets.

Areas are computed by coordinate compression: collect every distinct x and y
edge coordinate of both operands, rasterise each operand onto the resulting
(non-uniform) grid as a boolean occupancy matrix, and integrate cell areas
under the requested boolean combination.  This is exact for half-open
rectangles because region membership is constant within each grid cell.  The
rasterisation is chunked along the x axis so that the transient grids stay
within a fixed byte budget regardless of input size.

Storage is columnar: a set holds one ``(N, 4)`` float array of bounds, and
that array is the only representation of an answer between the kernel that
emits it and its consumer — every measure, the boundary tracer, the raster
metrics, the CLI and the wire frame read :attr:`RegionSet.bounds`.
:class:`Rect` is the value type of the API edge: objects are materialised
only when a caller iterates the set (``for rect in result.regions``,
:attr:`RegionSet.rects`), never by a serving path.
Query evaluators that emit their rectangles pairwise-disjoint by
construction (histogram cells, FR's sweep segments, PA's leaf-column runs)
pass ``disjoint=True`` so :meth:`area` reduces to a single vector sum
instead of a rasterisation — the answer-area accounting on the serving path
is O(N).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .errors import GeometryError
from .geometry import Rect

__all__ = ["RegionSet"]

# Bytes one chunk of an area computation may hold.  Per compressed-grid cell
# a chunk holds an operand's int32 cover count (summed in place) and bool
# mask, the other operand's mask and the combined mask: 7 bytes, budgeted
# as 8.  The cell areas are never materialised (see _combine_area).
_RASTER_BUDGET_BYTES = 32 << 20
_RASTER_BYTES_PER_CELL = 8

_EMPTY_BOUNDS = np.empty((0, 4), dtype=float)


def _edges_of(bounds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct sorted x and y edge coordinates of a bounds array."""
    if bounds.shape[0] == 0:
        return np.empty(0), np.empty(0)
    xs = np.unique(bounds[:, (0, 2)])
    ys = np.unique(bounds[:, (1, 3)])
    return xs, ys


def _bounds_from_rects(rects: Iterable[Rect]) -> np.ndarray:
    rows = [(r.x1, r.y1, r.x2, r.y2) for r in rects]
    if not rows:
        return _EMPTY_BOUNDS
    return np.asarray(rows, dtype=float)


def _drop_empty(bounds: np.ndarray) -> np.ndarray:
    if bounds.shape[0] == 0:
        return _EMPTY_BOUNDS
    keep = (bounds[:, 0] < bounds[:, 2]) & (bounds[:, 1] < bounds[:, 3])
    if keep.all():
        return bounds
    return bounds[keep]


class RegionSet:
    """An immutable union of half-open rectangles.

    The constructor drops empty rectangles but performs no other
    normalisation; rectangles may overlap.  All *measures* (area,
    intersection area, ...) treat the set as the union of its members.

    ``disjoint=True`` asserts that the member rectangles are pairwise
    disjoint point sets — the caller's responsibility — unlocking the O(N)
    :meth:`area` fast path.  Every measure involving a *second* operand
    still rasterises.
    """

    __slots__ = ("_bounds", "_rect_cache", "_disjoint")

    def __init__(self, rects: Iterable[Rect] = (), disjoint: bool = False) -> None:
        self._bounds = _drop_empty(_bounds_from_rects(rects))
        self._rect_cache: Optional[Tuple[Rect, ...]] = None
        self._disjoint = disjoint

    @classmethod
    def from_bounds(cls, bounds: np.ndarray, disjoint: bool = False) -> "RegionSet":
        """Build a set straight from an ``(N, 4)`` bounds array (no Rects).

        Empty rows are dropped, matching the constructor.  The array is
        copied into float64 layout unless it already complies.
        """
        out = cls.__new__(cls)
        arr = np.ascontiguousarray(np.asarray(bounds, dtype=float))
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise GeometryError(f"bounds must be (N, 4), got shape {arr.shape}")
        if arr.shape[0] and bool((arr[:, 0] > arr[:, 2]).any() or (arr[:, 1] > arr[:, 3]).any()):
            raise GeometryError("inverted rectangle bounds in array")
        out._bounds = _drop_empty(arr)
        out._rect_cache = None
        out._disjoint = disjoint
        return out

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    @property
    def bounds(self) -> np.ndarray:
        """The ``(N, 4)`` float array of ``(x1, y1, x2, y2)`` rows (read-only)."""
        return self._bounds

    @property
    def rects(self) -> Tuple[Rect, ...]:
        if self._rect_cache is None:
            self._rect_cache = tuple(
                Rect(row[0], row[1], row[2], row[3]) for row in self._bounds
            )
        return self._rect_cache

    def __len__(self) -> int:
        return self._bounds.shape[0]

    def __iter__(self) -> Iterator[Rect]:
        return iter(self.rects)

    def __bool__(self) -> bool:
        return self._bounds.shape[0] > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RegionSet({len(self)} rects, area={self.area():.6g})"

    def is_empty(self) -> bool:
        return self._bounds.shape[0] == 0

    # ------------------------------------------------------------------
    # constructions
    # ------------------------------------------------------------------
    def union(self, other: "RegionSet") -> "RegionSet":
        """Set union (concatenation; measures already treat members as a union)."""
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        return RegionSet.from_bounds(
            np.concatenate([self._bounds, other._bounds], axis=0)
        )

    def translated(self, dx: float, dy: float) -> "RegionSet":
        if self.is_empty():
            return self
        return RegionSet.from_bounds(
            self._bounds + np.array([dx, dy, dx, dy]), disjoint=self._disjoint
        )

    def clipped_to(self, box: Rect) -> "RegionSet":
        if self.is_empty():
            return self
        b = self._bounds
        clipped = np.empty_like(b)
        clipped[:, 0] = np.maximum(b[:, 0], box.x1)
        clipped[:, 1] = np.maximum(b[:, 1], box.y1)
        clipped[:, 2] = np.minimum(b[:, 2], box.x2)
        clipped[:, 3] = np.minimum(b[:, 3], box.y2)
        keep = (clipped[:, 0] < clipped[:, 2]) & (clipped[:, 1] < clipped[:, 3])
        return RegionSet.from_bounds(clipped[keep], disjoint=self._disjoint)

    def bounding_box(self) -> Optional[Rect]:
        if self.is_empty():
            return None
        b = self._bounds
        return Rect(
            float(b[:, 0].min()),
            float(b[:, 1].min()),
            float(b[:, 2].max()),
            float(b[:, 3].max()),
        )

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    def contains_point(self, x: float, y: float) -> bool:
        """Half-open membership in the union."""
        b = self._bounds
        if b.shape[0] == 0:
            return False
        return bool(
            (
                (b[:, 0] <= x)
                & (x < b[:, 2])
                & (b[:, 1] <= y)
                & (y < b[:, 3])
            ).any()
        )

    def intersects_rect(self, rect: Rect) -> bool:
        b = self._bounds
        if b.shape[0] == 0 or rect.is_empty():
            return False
        return bool(
            (
                (b[:, 0] < rect.x2)
                & (rect.x1 < b[:, 2])
                & (b[:, 1] < rect.y2)
                & (rect.y1 < b[:, 3])
            ).any()
        )

    # ------------------------------------------------------------------
    # measures
    # ------------------------------------------------------------------
    def area(self) -> float:
        """Exact area of the union of member rectangles.

        Pairwise-disjoint sets (``disjoint=True`` at construction) sum the
        member areas directly; overlapping sets rasterise.
        """
        if self._disjoint:
            b = self._bounds
            if b.shape[0] == 0:
                return 0.0
            return float(((b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])).sum())
        return self._combine_area(self, RegionSet(), "a")

    def intersection_area(self, other: "RegionSet") -> float:
        return self._combine_area(self, other, "and")

    def union_area(self, other: "RegionSet") -> float:
        return self._combine_area(self, other, "or")

    def difference_area(self, other: "RegionSet") -> float:
        """Area of ``self \\ other``."""
        return self._combine_area(self, other, "diff")

    def symmetric_difference_area(self, other: "RegionSet") -> float:
        return self._combine_area(self, other, "xor")

    def equals_region(self, other: "RegionSet", tol: float = 1e-9) -> bool:
        """True when the two unions cover the same point set up to area ``tol``."""
        return self.symmetric_difference_area(other) <= tol

    # ------------------------------------------------------------------
    # exports
    # ------------------------------------------------------------------
    def boundary_rings(self):
        """Boundary polygons of the union; see :mod:`repro.core.boundary`."""
        from .boundary import boundary_rings

        return boundary_rings(self)

    def to_geojson(self) -> dict:
        """A GeoJSON MultiPolygon for the union; see :mod:`repro.core.boundary`."""
        from .boundary import regions_to_geojson

        return regions_to_geojson(self)

    # ------------------------------------------------------------------
    # normalisation
    # ------------------------------------------------------------------
    def normalized(self) -> "RegionSet":
        """An equivalent ``RegionSet`` of disjoint rectangles.

        Rasterises onto the compressed grid and re-extracts maximal horizontal
        runs merged vertically (a simple greedy rectangle cover).  Useful for
        rendering and for deterministic comparisons; measures never need it.
        """
        if self.is_empty():
            return RegionSet()
        xs, ys = _edges_of(self._bounds)
        mask = self._raster_bounds(self._bounds, xs, ys)
        out: List[Rect] = []
        # Greedy: grow maximal rectangles row-by-row.
        live: dict = {}  # (ix1, ix2) -> iy_start for runs still growing
        for iy in range(mask.shape[1] + 1):
            row_runs = set()
            if iy < mask.shape[1]:
                row = mask[:, iy]
                ix = 0
                n = row.shape[0]
                while ix < n:
                    if row[ix]:
                        start = ix
                        while ix < n and row[ix]:
                            ix += 1
                        row_runs.add((start, ix))
                    else:
                        ix += 1
            ended = [k for k in live if k not in row_runs]
            for k in ended:
                iy0 = live.pop(k)
                out.append(Rect(xs[k[0]], ys[iy0], xs[k[1]], ys[iy]))
            for k in row_runs:
                if k not in live:
                    live[k] = iy
        return RegionSet(out, disjoint=True)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _raster_bounds(
        bounds: np.ndarray, xs: np.ndarray, ys: np.ndarray
    ) -> np.ndarray:
        """Boolean occupancy of ``bounds`` over the compressed grid (xs, ys).

        Every rectangle's four corners are scattered into a 2-D difference
        array in one ``np.add.at`` pass; the double cumulative sum then
        yields the per-cell cover count, whose nonzero cells are exactly
        the cells the old per-rectangle slice-assignment loop set.
        """
        nx, ny = max(len(xs) - 1, 0), max(len(ys) - 1, 0)
        if nx == 0 or ny == 0:
            return np.zeros((nx, ny), dtype=bool)
        if bounds.shape[0] == 0:
            return np.zeros((nx, ny), dtype=bool)
        ix1 = np.searchsorted(xs, bounds[:, 0])
        ix2 = np.searchsorted(xs, bounds[:, 2])
        iy1 = np.searchsorted(ys, bounds[:, 1])
        iy2 = np.searchsorted(ys, bounds[:, 3])
        # One flat index over the four corner sets and int32 values: numpy's
        # typed 1-D ufunc.at loop, not its casting path.
        w = ny + 1
        corners = np.concatenate([ix1 * w + iy1, ix2 * w + iy2, ix2 * w + iy1, ix1 * w + iy2])
        signs = np.repeat(np.array([1, 1, -1, -1], dtype=np.int32), bounds.shape[0])
        acc = np.zeros((nx + 1) * w, dtype=np.int32)
        np.add.at(acc, corners, signs)
        # In place: cover counts never exceed the rectangle count, and an
        # int64 cumsum would be two more 8-byte grids.
        counts = acc.reshape(nx + 1, w)
        np.cumsum(counts, axis=0, out=counts)
        np.cumsum(counts, axis=1, out=counts)
        return counts[:nx, :ny] > 0

    @staticmethod
    def _combine_area(a: "RegionSet", b: "RegionSet", op: str) -> float:
        """Area of a boolean combination of two rectangle unions."""
        bounds_a = a._bounds
        bounds_b = b._bounds
        if bounds_a.shape[0] == 0 and bounds_b.shape[0] == 0:
            return 0.0
        if bounds_a.shape[0] and bounds_b.shape[0]:
            xs, ys = _edges_of(np.concatenate([bounds_a, bounds_b], axis=0))
        else:
            xs, ys = _edges_of(bounds_a if bounds_a.shape[0] else bounds_b)
        nx, ny = len(xs) - 1, len(ys) - 1
        if nx <= 0 or ny <= 0:
            return 0.0
        dy = np.broadcast_to(np.diff(ys), (nx, ny))
        # Each x-row's covered length, taken against dy with the combined
        # mask as the reduction's ``where`` (no dense dx * dy product), then
        # the rows against dx in one sum: the same floats however the rows
        # are chunked.
        row_length = np.empty(nx)
        # Chunk along x so the transient masks stay within the byte budget.
        rows_per_chunk = max(
            1, _RASTER_BUDGET_BYTES // (_RASTER_BYTES_PER_CELL * (ny + 1))
        )
        for x0 in range(0, nx, rows_per_chunk):
            x1 = min(nx, x0 + rows_per_chunk)
            sub_xs = xs[x0 : x1 + 1]
            lo, hi = sub_xs[0], sub_xs[-1]
            mask_a = RegionSet._clipped_raster_bounds(bounds_a, sub_xs, ys, lo, hi)
            if op == "a":
                combined = mask_a
            else:
                mask_b = RegionSet._clipped_raster_bounds(bounds_b, sub_xs, ys, lo, hi)
                if op == "and":
                    combined = mask_a & mask_b
                elif op == "or":
                    combined = mask_a | mask_b
                elif op == "diff":
                    combined = mask_a & ~mask_b
                elif op == "xor":
                    combined = mask_a ^ mask_b
                else:  # pragma: no cover - internal misuse
                    raise GeometryError(f"unknown boolean op {op!r}")
            np.sum(dy[x0:x1], axis=1, where=combined, out=row_length[x0:x1])
        return float((np.diff(xs) * row_length).sum())

    @staticmethod
    def _clipped_raster_bounds(
        bounds: np.ndarray, xs: np.ndarray, ys: np.ndarray, lo: float, hi: float
    ) -> np.ndarray:
        """Rasterise bounds clipped to the x-range covered by ``xs``."""
        if bounds.shape[0] == 0:
            return np.zeros((len(xs) - 1, len(ys) - 1), dtype=bool)
        keep = (bounds[:, 0] < hi) & (bounds[:, 2] > lo)
        if not keep.any():
            return np.zeros((len(xs) - 1, len(ys) - 1), dtype=bool)
        sub = bounds[keep]
        clipped = sub.copy()
        clipped[:, 0] = np.maximum(sub[:, 0], lo)
        clipped[:, 2] = np.minimum(sub[:, 2], hi)
        return RegionSet._raster_bounds(clipped, xs, ys)
