"""Time-parameterized bounding rectangles (TPBRs).

The TPR-tree (Saltenis et al., SIGMOD 2000) bounds a set of linearly moving
points with a rectangle whose edges themselves move linearly: the low edge
with the minimum velocity of the enclosed objects, the high edge with the
maximum.  A TPBR anchored at reference time ``t_ref`` therefore contains
every enclosed trajectory for all ``t >= t_ref``, growing monotonically.

The insertion heuristics of the TPR-tree minimise the *integral* of bounding
area over the time horizon ``[t_now, t_now + H]`` rather than the area at a
single instant; :meth:`TPBR.integral_area` evaluates that integral in closed
form (the area is a quadratic polynomial of time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..core.errors import IndexError_
from ..core.geometry import Rect

__all__ = ["TPBR", "anchored_edges", "cheapest_enlargement", "pick_split"]


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
        """This bound as one column of the array :func:`cheapest_enlargement`
        and the batched traversal read: low edge, high edge, anchor."""
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
        return _integral_area(
            self.x2 - self.x1,
            self.y2 - self.y1,
            self.vx2 - self.vx1,
            self.vy2 - self.vy1,
            t_from - self.t_ref,
            t_to - self.t_ref,
        )

    def integral_margin(self, t_from: float, t_to: float) -> float:
        """Integral of the half-perimeter ``w(t) + h(t)`` over the window.

        Used as the tie-breaker between split distributions whose bounding
        *areas* are degenerate (e.g. collinear entries), mirroring the
        R*-tree's margin metric.
        """
        if t_to < t_from:
            raise IndexError_(f"empty integration range [{t_from}, {t_to}]")
        return _integral_margin(
            self.x2 - self.x1,
            self.y2 - self.y1,
            self.vx2 - self.vx1,
            self.vy2 - self.vy1,
            t_from - self.t_ref,
            t_to - self.t_ref,
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

    def enlarged_integral(self, other: "TPBR", t_from: float, t_to: float) -> float:
        """Integral area after hypothetically adding ``other`` (no mutation)."""
        grown = self.copy()
        grown.extend_tpbr(other)
        return grown.integral_area(t_from, t_to)


def _integral_area(w0, h0, a, b, s1, s2):
    """``∫ (w0 + a s)(h0 + b s) ds`` over ``[s1, s2]``, for floats or arrays
    alike — one expression, so the columnar scores equal the scalar ones."""
    return (
        w0 * h0 * (s2 - s1)
        + (w0 * b + h0 * a) * ((s2 * s2 - s1 * s1) / 2.0)
        + a * b * ((s2 * s2 * s2 - s1 * s1 * s1) / 3.0)
    )


def _integral_margin(w0, h0, a, b, s1, s2):
    """``∫ (w0 + a s) + (h0 + b s) ds`` over ``[s1, s2]``, floats or arrays."""
    return (w0 + h0) * (s2 - s1) + (a + b) * (s2 * s2 - s1 * s1) / 2.0


def anchored_edges(cols: np.ndarray, t: float) -> Tuple[np.ndarray, np.ndarray]:
    """Low and high edges ``(x, y, vx, vy)`` of every bound in ``cols`` (one
    :meth:`TPBR.column` per column) re-anchored at time ``t`` — the
    ``other.x1 + other.vx1 * dt`` of :meth:`TPBR.extend_tpbr`, elementwise."""
    dt = t - cols[8]
    lo, hi = cols[0:4].copy(), cols[4:8].copy()
    lo[0:2] += cols[2:4] * dt
    hi[0:2] += cols[6:8] * dt
    return lo, hi


def cheapest_enlargement(
    cols: np.ndarray, point: TPBR, t_from: float, t_to: float
) -> int:
    """Index of the child bound that the motion ``point`` enlarges least.

    ``cols`` holds one child bound per column (:meth:`TPBR.column`).
    Children are ranked by the key ``(enlargement, base)`` —
    :meth:`TPBR.enlarged_integral` minus :meth:`TPBR.integral_area`, then
    the area itself — and the first minimum wins.  Every child is scored in
    one array expression built from the same operations, in the same order,
    as the scalar methods, so the choice is the one a loop over them makes.
    """
    n = cols.shape[1]
    lo, hi, t_ref = cols[0:4], cols[4:8], cols[8]
    dt = t_ref - point.t_ref
    at = np.empty((4, n))
    at[0] = point.x1 + point.vx1 * dt
    at[1] = point.y1 + point.vy1 * dt
    at[2] = point.vx1
    at[3] = point.vy1
    # Extents (w0, h0, a, b) of every bound as it is [0], then as grown [1].
    extent = np.empty((4, 2, n))
    np.subtract(hi, lo, out=extent[:, 0])
    np.subtract(np.maximum(hi, at), np.minimum(lo, at), out=extent[:, 1])
    base, grown = _integral_area(*extent, t_from - t_ref, t_to - t_ref)
    # lexsort is stable: among equal keys the lowest index comes first.
    return int(np.lexsort((base, grown - base))[0])


def pick_split(
    cols: np.ndarray, min_fill: int, t_from: float, t_to: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Partition the bounds in ``cols`` into two groups of ``>= min_fill``.

    The axis-sweep split of the TPR-tree: on each axis the entries are
    ordered by their centre at the middle of ``[t_from, t_to]`` (stable),
    every legal prefix/suffix distribution is scored by the two groups'
    summed integral bounding area — summed integral margin breaking ties,
    for collinear entries whose areas are all zero — and the first minimum
    wins.  Prefix and suffix bounds are running minima/maxima of the
    entries re-anchored at ``t_from``; min and max are exact, so the scores
    equal those of an :meth:`TPBR.extend_tpbr` loop.  Returns the two
    groups as index arrays into ``cols``, each in centre order.
    """
    n = cols.shape[1]
    if n < 2 * min_fill:
        raise IndexError_(f"cannot split {n} entries with minimum fill {min_fill}")
    mid_lo, mid_hi = anchored_edges(cols, (t_from + t_to) / 2.0)
    lo, hi = anchored_edges(cols, t_from)
    sizes = np.arange(min_fill, n - min_fill + 1)  # of the first group
    span = (0.0, t_to - t_from)
    orders, areas, margins = [], [], []
    for axis in (0, 1):
        order = np.argsort((mid_lo[axis] + mid_hi[axis]) / 2.0, kind="stable")
        lo_s, hi_s = lo[:, order], hi[:, order]
        head = np.maximum.accumulate(hi_s, axis=1) - np.minimum.accumulate(lo_s, axis=1)
        tail = (
            np.maximum.accumulate(hi_s[:, ::-1], axis=1)
            - np.minimum.accumulate(lo_s[:, ::-1], axis=1)
        )[:, ::-1]
        first, second = head[:, sizes - 1], tail[:, sizes]
        orders.append(order)
        areas.append(_integral_area(*first, *span) + _integral_area(*second, *span))
        margins.append(_integral_margin(*first, *span) + _integral_margin(*second, *span))
    # lexsort is stable: the first minimum in (axis, size) order wins.
    best = int(np.lexsort((np.concatenate(margins), np.concatenate(areas)))[0])
    axis, k = divmod(best, sizes.shape[0])
    return orders[axis][: sizes[k]], orders[axis][sizes[k] :]
