"""Time-parameterized bounding rectangles (TPBRs).

The TPR-tree (Saltenis et al., SIGMOD 2000) bounds a set of linearly moving
points with a rectangle whose edges themselves move linearly: the low edge
with the minimum velocity of the enclosed objects, the high edge with the
maximum.  A TPBR anchored at reference time ``t_ref`` therefore contains
every enclosed trajectory for all ``t >= t_ref``, growing monotonically.

The TPR-tree's quality measure is the *integral* of bounding area over the
time horizon ``[t_now, t_now + H]`` rather than the area at a single
instant; :meth:`TPBR.integral_area` evaluates that integral in closed form
(the area is a quadratic polynomial of time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..core.errors import IndexError_
from ..core.geometry import Rect

__all__ = ["TPBR", "anchored_edges"]


@dataclass
class TPBR:
    """A moving bounding rectangle anchored at ``t_ref``.

    ``(x1, y1, x2, y2)`` are the spatial bounds at ``t_ref``; ``(vx1, vy1)``
    and ``(vx2, vy2)`` are the velocities of the low and high edges.
    """

    t_ref: float
    x1: float
    y1: float
    x2: float
    y2: float
    vx1: float
    vy1: float
    vx2: float
    vy2: float

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def point(t_ref: float, x: float, y: float, vx: float, vy: float) -> "TPBR":
        """Degenerate TPBR exactly tracking one motion reported at ``t_ref``.

        Because the edge velocities equal the object velocity, the bound is
        exact for every ``t`` — a motion *is* a TPBR, which is why leaves
        and internal nodes share every bounding expression.
        """
        return TPBR(t_ref, x, y, x, y, vx, vy, vx, vy)

    @staticmethod
    def empty(t_ref: float) -> "TPBR":
        """An empty bound; extending it adopts the first operand's extent."""
        inf = float("inf")
        return TPBR(t_ref, inf, inf, -inf, -inf, inf, inf, -inf, -inf)

    def is_empty(self) -> bool:
        return self.x1 > self.x2 or self.y1 > self.y2

    def column(self) -> tuple:
        """This bound as one column of the array :meth:`Node.columns` and the
        batched traversal read: low edge, high edge, anchor."""
        return (
            self.x1, self.y1, self.vx1, self.vy1,
            self.x2, self.y2, self.vx2, self.vy2,
            self.t_ref,
        )

    def copy(self) -> "TPBR":
        return TPBR(
            self.t_ref, self.x1, self.y1, self.x2, self.y2,
            self.vx1, self.vy1, self.vx2, self.vy2,
        )

    # ------------------------------------------------------------------
    # evaluation in time
    # ------------------------------------------------------------------
    def rect_at(self, t: float) -> Rect:
        """The spatial bounds at time ``t >= t_ref``."""
        dt = t - self.t_ref
        if dt < 0:
            raise IndexError_(
                f"TPBR anchored at {self.t_ref} queried at earlier time {t}"
            )
        return Rect(
            self.x1 + self.vx1 * dt,
            self.y1 + self.vy1 * dt,
            self.x2 + self.vx2 * dt,
            self.y2 + self.vy2 * dt,
        )

    def area_at(self, t: float) -> float:
        dt = t - self.t_ref
        w = (self.x2 - self.x1) + (self.vx2 - self.vx1) * dt
        h = (self.y2 - self.y1) + (self.vy2 - self.vy1) * dt
        return max(w, 0.0) * max(h, 0.0)

    def integral_area(self, t_from: float, t_to: float) -> float:
        """Closed-form integral of :meth:`area_at` over ``[t_from, t_to]``.

        With ``s = t - t_ref``, width ``w(s) = w0 + a s`` and height
        ``h(s) = h0 + b s`` the integrand is the quadratic
        ``w0 h0 + (w0 b + h0 a) s + a b s^2``, integrated term by term.  The
        tree only ever integrates over ``t >= t_ref`` where both factors are
        nonnegative.
        """
        if t_to < t_from:
            raise IndexError_(f"empty integration range [{t_from}, {t_to}]")
        w0, h0 = self.x2 - self.x1, self.y2 - self.y1
        a, b = self.vx2 - self.vx1, self.vy2 - self.vy1
        s1, s2 = t_from - self.t_ref, t_to - self.t_ref
        return (
            w0 * h0 * (s2 - s1)
            + (w0 * b + h0 * a) * ((s2 * s2 - s1 * s1) / 2.0)
            + a * b * ((s2 * s2 * s2 - s1 * s1 * s1) / 3.0)
        )

    def intersects_rect_at(self, rect: Rect, t: float) -> bool:
        """Closed-interval overlap test between the bound at ``t`` and ``rect``.

        Deliberately *closed* (inclusive) so it can never prune an object on a
        boundary; exact half-open membership is re-checked on the retrieved
        objects by the caller.
        """
        dt = t - self.t_ref
        x_lo = self.x1 + self.vx1 * dt
        x_hi = self.x2 + self.vx2 * dt
        y_lo = self.y1 + self.vy1 * dt
        y_hi = self.y2 + self.vy2 * dt
        return not (
            x_hi < rect.x1 or rect.x2 < x_lo or y_hi < rect.y1 or rect.y2 < y_lo
        )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def extend_tpbr(self, other: "TPBR") -> None:
        """Grow (in place) to enclose ``other`` for every ``t >= t_ref``.

        ``other`` is re-anchored at this bound's reference time; because edge
        positions are linear, re-anchoring preserves the enclosure guarantee
        as long as both anchors precede the times of interest.
        """
        if other.is_empty():
            return
        dt = self.t_ref - other.t_ref
        ox1 = other.x1 + other.vx1 * dt
        oy1 = other.y1 + other.vy1 * dt
        ox2 = other.x2 + other.vx2 * dt
        oy2 = other.y2 + other.vy2 * dt
        self.x1 = min(self.x1, ox1)
        self.y1 = min(self.y1, oy1)
        self.x2 = max(self.x2, ox2)
        self.y2 = max(self.y2, oy2)
        self.vx1 = min(self.vx1, other.vx1)
        self.vy1 = min(self.vy1, other.vy1)
        self.vx2 = max(self.vx2, other.vx2)
        self.vy2 = max(self.vy2, other.vy2)


def anchored_edges(cols: np.ndarray, t: float) -> Tuple[np.ndarray, np.ndarray]:
    """Low and high edges ``(x, y, vx, vy)`` of every bound in ``cols`` (one
    :meth:`TPBR.column` per column) re-anchored at time ``t`` — the
    ``other.x1 + other.vx1 * dt`` of :meth:`TPBR.extend_tpbr`, elementwise."""
    dt = t - cols[8]
    lo, hi = cols[0:4].copy(), cols[4:8].copy()
    lo[0:2] += cols[2:4] * dt
    hi[0:2] += cols[6:8] * dt
    return lo, hi
