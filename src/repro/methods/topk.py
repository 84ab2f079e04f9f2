"""Top-k density peaks — a best-first search over the Chebyshev surface.

Dispatch applications often want "the k busiest spots" rather than every
point above a threshold.  With the PA surface in memory this is a classic
best-first branch-and-bound *maximum* search: maintain a max-heap of boxes
keyed by their density upper bound; repeatedly split the most promising box;
a box at the resolution floor becomes a *peak candidate* valued at its
centre density.  Candidates must be at least ``separation`` apart so the k
results describe k distinct hot spots rather than one peak sampled k times.

The search is exact with respect to the approximated surface at the chosen
resolution: when the best remaining upper bound cannot beat the k-th
candidate, the search stops with a proof of optimality.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..chebyshev.bounds import bound_expansion, frame_bounds
from ..chebyshev.cheb2d import evaluate
from ..core.errors import InvalidParameterError
from .pa import PAMethod

__all__ = ["DensityPeak", "top_k_peaks"]


@dataclass(frozen=True)
class DensityPeak:
    """One reported hot spot: world position and approximated density."""

    x: float
    y: float
    density: float


def top_k_peaks(
    pa: PAMethod,
    qt: int,
    k: int,
    separation: float = 0.0,
    md: int = 256,
) -> List[DensityPeak]:
    """The ``k`` highest-density locations at time ``qt``.

    Args:
        pa: the maintained polynomial surface.
        qt: query timestamp (inside the maintained window).
        k: number of peaks to report.
        separation: minimum world distance between reported peaks
            (``0`` disables the constraint beyond the resolution floor).
        md: evaluation-grid resolution, as in the PA query (``m_d``).
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if md < pa.spec.g:
        raise InvalidParameterError("md must be at least the polynomial grid g")
    surface = pa.surface_at(qt)
    spec = surface.spec
    min_edge = 2.0 * spec.g / md

    counter = itertools.count()  # heap tie-breaker
    heap: List[Tuple[float, int, int, int, float, float, float, float]] = []
    _lo, hi = frame_bounds(surface.coeffs)
    for (i, j), tile_hi in np.ndenumerate(hi):
        heapq.heappush(
            heap, (-float(tile_hi), next(counter), i, j, -1.0, -1.0, 1.0, 1.0)
        )

    peaks: List[DensityPeak] = []

    def far_enough(x: float, y: float) -> bool:
        return all(
            np.hypot(p.x - x, p.y - y) >= separation for p in peaks
        )

    while heap:
        neg_upper, _tick, i, j, x1, y1, x2, y2 = heapq.heappop(heap)
        upper = -neg_upper
        if len(peaks) >= k and upper <= peaks[-1].density:
            break  # nothing left can beat the current k-th peak
        if (x2 - x1) <= min_edge and (y2 - y1) <= min_edge:
            cx, cy = (x1 + x2) / 2.0, (y1 + y2) / 2.0
            value = float(
                evaluate(surface.coeffs[i, j], np.array([cx]), np.array([cy]))[0]
            )
            wx, wy = spec.from_normalized(i, j, cx, cy)
            if far_enough(wx, wy):
                peaks.append(DensityPeak(wx, wy, value))
                peaks.sort(key=lambda p: -p.density)
                if len(peaks) > k:
                    peaks.pop()
            continue
        mx, my = (x1 + x2) / 2.0, (y1 + y2) / 2.0
        children = []
        if (x2 - x1) <= min_edge:
            children = [(x1, y1, x2, my), (x1, my, x2, y2)]
        elif (y2 - y1) <= min_edge:
            children = [(x1, y1, mx, y2), (mx, y1, x2, y2)]
        else:
            children = [
                (x1, y1, mx, my), (mx, y1, x2, my),
                (x1, my, mx, y2), (mx, my, x2, y2),
            ]
        cx1, cy1, cx2, cy2 = np.array(children).T
        _clo, chi = bound_expansion(surface.coeffs[i, j], cx1, cx2, cy1, cy2)
        for child, child_hi in zip(children, chi):
            # Prune children that cannot beat the current k-th peak.
            if len(peaks) >= k and child_hi <= peaks[-1].density:
                continue
            heapq.heappush(
                heap, (-float(child_hi), next(counter), i, j, *child)
            )
    return peaks
