"""Planar geometry primitives shared by every subsystem.

The library manipulates two kinds of point sets:

* **answer rectangles** — the dense regions reported by a PDR method.  These
  are *half-open* rectangles ``[x1, x2) x [y1, y2)``: closed on the low edge,
  open on the high edge, so that adjacent output rectangles tile the plane
  without double counting.
* **l-square neighborhoods** — the square of edge ``l`` centred at a point
  ``p``, which per Definition 1 of the paper includes its right/top edges and
  excludes its left/bottom edges: ``(px - l/2, px + l/2] x (py - l/2,
  py + l/2]``.

The two conventions are duals: an *object* at ``o`` lies inside the l-square
centred at ``p`` iff ``p`` lies in the half-open rectangle ``[o - l/2,
o + l/2) x [o - l/2, o + l/2)`` — exactly the :class:`Rect` convention.  That
duality is what makes the plane-sweep events exact, and it is relied on
throughout :mod:`repro.sweep` and :mod:`repro.baselines.bruteforce`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple

from .errors import GeometryError

__all__ = [
    "Point",
    "Rect",
    "square_bounds",
    "object_influence_rect",
    "point_in_square",
]


@dataclass(frozen=True)
class Point:
    """An immutable planar point."""

    x: float
    y: float

    def translated(self, dx: float, dy: float) -> "Point":
        """Return this point shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_tuple(self) -> Tuple[float, float]:
        """Return ``(x, y)``."""
        return (self.x, self.y)


@dataclass(frozen=True)
class Rect:
    """A half-open axis-aligned rectangle ``[x1, x2) x [y1, y2)``.

    Degenerate rectangles (``x1 == x2`` or ``y1 == y2``) are permitted and
    represent the empty point set; inverted bounds raise
    :class:`~repro.core.errors.GeometryError`.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise GeometryError(
                f"inverted rectangle bounds: ({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )

    # ------------------------------------------------------------------
    # basic measures
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)

    def is_empty(self) -> bool:
        """True when the rectangle contains no points."""
        return self.x1 >= self.x2 or self.y1 >= self.y2

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    def contains_point(self, x: float, y: float) -> bool:
        """Membership under the half-open convention."""
        return self.x1 <= x < self.x2 and self.y1 <= y < self.y2

    def contains_points(self, xs, ys):
        """:meth:`contains_point` for coordinate arrays: a boolean mask."""
        return (self.x1 <= xs) & (xs < self.x2) & (self.y1 <= ys) & (ys < self.y2)

    def contains_rect(self, other: "Rect") -> bool:
        """True when ``other`` (as a point set) is a subset of this rect."""
        if other.is_empty():
            return True
        return (
            self.x1 <= other.x1
            and self.y1 <= other.y1
            and other.x2 <= self.x2
            and other.y2 <= self.y2
        )

    def intersects(self, other: "Rect") -> bool:
        """True when the two half-open rectangles share at least one point."""
        return (
            self.x1 < other.x2
            and other.x1 < self.x2
            and self.y1 < other.y2
            and other.y1 < self.y2
        )

    # ------------------------------------------------------------------
    # constructions
    # ------------------------------------------------------------------
    def intersection(self, other: "Rect") -> "Rect":
        """The (possibly empty) intersection rectangle."""
        x1 = max(self.x1, other.x1)
        y1 = max(self.y1, other.y1)
        x2 = min(self.x2, other.x2)
        y2 = min(self.y2, other.y2)
        if x2 < x1 or y2 < y1:
            return Rect(x1, y1, x1, y1)
        return Rect(x1, y1, x2, y2)

    def union_bounds(self, other: "Rect") -> "Rect":
        """Smallest rectangle covering both operands."""
        return Rect(
            min(self.x1, other.x1),
            min(self.y1, other.y1),
            max(self.x2, other.x2),
            max(self.y2, other.y2),
        )

    def expanded(self, margin: float) -> "Rect":
        """Grow every edge outward by ``margin`` (must leave bounds valid)."""
        return Rect(self.x1 - margin, self.y1 - margin, self.x2 + margin, self.y2 + margin)

    def translated(self, dx: float, dy: float) -> "Rect":
        return Rect(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)

    def clipped_to(self, other: "Rect") -> "Rect":
        """Alias of :meth:`intersection`, reads better at call sites."""
        return self.intersection(other)

    def corners(self) -> Iterator[Point]:
        yield Point(self.x1, self.y1)
        yield Point(self.x2, self.y1)
        yield Point(self.x2, self.y2)
        yield Point(self.x1, self.y2)

    def as_tuple(self) -> Tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)

    @staticmethod
    def from_center(center: Point, width: float, height: float) -> "Rect":
        """Rectangle of the given size centred on ``center``."""
        hw, hh = width / 2.0, height / 2.0
        return Rect(center.x - hw, center.y - hh, center.x + hw, center.y + hh)

    @staticmethod
    def bounding(rects: Iterable["Rect"]) -> "Rect":
        """Bounding box of a non-empty collection of rectangles."""
        it = iter(rects)
        try:
            box = next(it)
        except StopIteration:
            raise GeometryError("bounding() requires at least one rectangle") from None
        for r in it:
            box = box.union_bounds(r)
        return box


def square_bounds(cx: float, cy: float, l: float) -> Tuple[float, float, float, float]:
    """Bounds ``(x_lo, y_lo, x_hi, y_hi)`` of the l-square centred at ``(cx, cy)``.

    Membership for an object uses ``(x_lo, x_hi] x (y_lo, y_hi]`` — see the
    module docstring.
    """
    h = l / 2.0
    return (cx - h, cy - h, cx + h, cy + h)


def point_in_square(ox: float, oy: float, cx: float, cy: float, l: float) -> bool:
    """Is the object at ``(ox, oy)`` inside the l-square centred at ``(cx, cy)``?

    Implements Definition 1 of the paper: right and top edges included, left
    and bottom edges excluded.
    """
    h = l / 2.0
    return (cx - h < ox <= cx + h) and (cy - h < oy <= cy + h)


def object_influence_rect(ox: float, oy: float, l: float) -> Rect:
    """The set of centre points whose l-square contains the object at ``(ox, oy)``.

    This is the half-open rectangle ``[ox - l/2, ox + l/2) x [oy - l/2,
    oy + l/2)``; it is the dual form of :func:`point_in_square` and the basis
    of the plane-sweep event coordinates.
    """
    h = l / 2.0
    return Rect(ox - h, oy - h, ox + h, oy + h)


def merge_touching_intervals(
    intervals: Sequence[Tuple[float, float]],
) -> list:
    """Merge a sequence of half-open intervals, coalescing overlaps and touches.

    Input need not be sorted.  Returns a sorted list of disjoint half-open
    ``(lo, hi)`` pairs with positive length.
    """
    pts = sorted((lo, hi) for lo, hi in intervals if hi > lo)
    merged: list = []
    for lo, hi in pts:
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return [(lo, hi) for lo, hi in merged]
