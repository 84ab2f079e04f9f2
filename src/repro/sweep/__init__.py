"""Plane-sweep refinement: exact dense rectangles inside a candidate cell."""

from .plane_sweep import dense_segments_1d, refine_cell

__all__ = ["refine_cell", "dense_segments_1d"]
