"""Chebyshev machinery behind the PA method: expansions, deltas, bounds, dense regions."""

from .bnb import BnBResult, dense_boxes
from .bounds import bound_expansion, frame_bounds
from .cheb1d import chebyshev_values, interval_bounds, weighted_integrals
from .cheb2d import approximate_function, coefficient_count, evaluate, evaluate_grid
from .contours import contour_segments, contour_segments_from_grid
from .delta import delta_coefficients, delta_coefficients_batch
from .grid import ChebSurface, GridSpec

__all__ = [
    "chebyshev_values",
    "interval_bounds",
    "weighted_integrals",
    "evaluate",
    "evaluate_grid",
    "approximate_function",
    "coefficient_count",
    "delta_coefficients",
    "delta_coefficients_batch",
    "bound_expansion",
    "frame_bounds",
    "dense_boxes",
    "BnBResult",
    "GridSpec",
    "ChebSurface",
    "contour_segments",
    "contour_segments_from_grid",
]
