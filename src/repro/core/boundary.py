"""Boundary extraction: from rectangle unions to rectilinear polygons.

PDR answers are unions of many small rectangles — fine for area algebra,
clumsy for consumers (map overlays, geofencing APIs) that want *polygons*.
This module converts a :class:`~repro.core.regions.RegionSet` into its
boundary rings:

1. rasterise the union onto the compressed coordinate grid;
2. emit one counter-clockwise unit edge per filled-cell side whose neighbour
   is empty (interior edges cancel by construction);
3. chain edges into closed rings, merging collinear runs.

Outer boundaries come out counter-clockwise, holes clockwise (by the signed
area convention), which is exactly GeoJSON's winding rule —
:func:`regions_to_geojson` packages the rings accordingly.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .errors import GeometryError
from .regions import RegionSet, _edges_of

__all__ = ["boundary_rings", "ring_signed_area", "regions_to_geojson"]

Point = Tuple[float, float]
Ring = List[Point]


def ring_signed_area(ring: Ring) -> float:
    """Shoelace signed area; positive for counter-clockwise rings."""
    if len(ring) < 3:
        return 0.0
    total = 0.0
    for (x1, y1), (x2, y2) in zip(ring, ring[1:] + ring[:1]):
        total += x1 * y2 - x2 * y1
    return total / 2.0


def _merge_collinear(ring: Ring) -> Ring:
    """Drop intermediate vertices of axis-parallel runs."""
    if len(ring) <= 4:
        return ring
    out: Ring = []
    n = len(ring)
    for i in range(n):
        prev = ring[(i - 1) % n]
        cur = ring[i]
        nxt = ring[(i + 1) % n]
        same_x = prev[0] == cur[0] == nxt[0]
        same_y = prev[1] == cur[1] == nxt[1]
        if not (same_x or same_y):
            out.append(cur)
    return out


def boundary_rings(regions: RegionSet) -> List[Ring]:
    """Closed boundary rings of the union of ``regions``.

    Each ring is a list of ``(x, y)`` vertices without the repeated closing
    point.  Outer rings wind counter-clockwise, holes clockwise.
    """
    if regions.is_empty():
        return []
    xs, ys = _edges_of(regions.bounds)
    mask = RegionSet._raster_bounds(regions.bounds, xs, ys)
    nx, ny = mask.shape

    # Directed boundary edges, CCW around filled cells: key = start vertex
    # (as grid indices), value = end vertex.  Interior edges never appear
    # because each cell side is emitted only when the neighbour is empty.
    padded = np.zeros((nx + 2, ny + 2), dtype=bool)
    padded[1:-1, 1:-1] = mask
    nxt: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}

    def emit(a: Tuple[int, int], b: Tuple[int, int]) -> None:
        nxt.setdefault(a, []).append(b)

    filled = np.argwhere(mask)
    core = padded[1:-1, 1:-1]
    south_open = ~padded[1:-1, 0:-2] & core
    north_open = ~padded[1:-1, 2:] & core
    west_open = ~padded[0:-2, 1:-1] & core
    east_open = ~padded[2:, 1:-1] & core
    for i, j in filled:
        i, j = int(i), int(j)
        if south_open[i, j]:
            emit((i, j), (i + 1, j))  # bottom edge, left->right
        if east_open[i, j]:
            emit((i + 1, j), (i + 1, j + 1))  # right edge, up
        if north_open[i, j]:
            emit((i + 1, j + 1), (i, j + 1))  # top edge, right->left
        if west_open[i, j]:
            emit((i, j + 1), (i, j))  # left edge, down

    rings: List[Ring] = []
    while nxt:
        start = next(iter(nxt))
        ring_idx: List[Tuple[int, int]] = [start]
        current = nxt[start].pop()
        if not nxt[start]:
            del nxt[start]
        while current != start:
            ring_idx.append(current)
            outgoing = nxt.get(current)
            if not outgoing:
                raise GeometryError("boundary tracing broke: open chain")
            if len(outgoing) == 1:
                step = outgoing.pop()
                del nxt[current]
            else:
                # A pinch vertex (two rings touching at a corner): prefer the
                # edge that turns most sharply left to keep rings simple.
                prev = ring_idx[-2]
                din = (current[0] - prev[0], current[1] - prev[1])
                left = (-din[1], din[0])
                step = max(
                    outgoing,
                    key=lambda cand: (cand[0] - current[0]) * left[0]
                    + (cand[1] - current[1]) * left[1],
                )
                outgoing.remove(step)
            current = step
        ring = [(float(xs[i]), float(ys[j])) for (i, j) in ring_idx]
        rings.append(_merge_collinear(ring))
    return rings


def regions_to_geojson(regions: RegionSet) -> dict:
    """A GeoJSON ``MultiPolygon`` geometry for the union of ``regions``.

    Outer rings (CCW, positive signed area) become polygons; each hole (CW)
    is attached to the outer ring that contains its first vertex.
    """
    rings = boundary_rings(regions)
    outers: List[Ring] = []
    holes: List[Ring] = []
    for ring in rings:
        (outers if ring_signed_area(ring) > 0 else holes).append(ring)
    polygons: List[List[Ring]] = [[outer] for outer in outers]

    def contains(outer: Ring, point: Point) -> bool:
        # Standard ray casting; boundary cases do not matter for hole
        # assignment because holes are strictly inside their outer ring.
        x, y = point
        inside = False
        n = len(outer)
        for i in range(n):
            x1, y1 = outer[i]
            x2, y2 = outer[(i + 1) % n]
            if (y1 > y) != (y2 > y):
                t = (y - y1) / (y2 - y1)
                if x < x1 + t * (x2 - x1):
                    inside = not inside
        return inside

    for hole in holes:
        probe = hole[0]
        # Nudge the probe into the hole's interior (vertices lie on the
        # outer ring's grid): use the hole's centroid instead.
        cx = sum(p[0] for p in hole) / len(hole)
        cy = sum(p[1] for p in hole) / len(hole)
        probe = (cx, cy)
        for poly in polygons:
            if contains(poly[0], probe):
                poly.append(hole)
                break
    closed = [
        [[list(pt) for pt in ring] + [list(ring[0])] for ring in poly]
        for poly in polygons
    ]
    return {"type": "MultiPolygon", "coordinates": closed}
