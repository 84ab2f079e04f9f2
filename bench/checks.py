"""Correctness oracles the benchmark runs beside its timings."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

__all__ = ["Checks", "point_oracle_mismatches", "same_region"]


class Checks:
    """Named pass/fail outcomes of one run; a failed check fails the run."""

    def __init__(self) -> None:
        self.outcomes: List[Tuple[str, bool, str]] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.outcomes.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def failed(self) -> List[Tuple[str, bool, str]]:
        return [o for o in self.outcomes if not o[1]]


def _positions_at(server, qt: int) -> np.ndarray:
    """In-domain object positions at ``qt`` (the paper's L x L convention)."""
    domain = server.config.domain
    xy = np.array(
        [(x, y) for _, x, y in server.table.positions_at(qt)], dtype=float
    ).reshape(-1, 2)
    inside = (
        (xy[:, 0] >= domain.x1) & (xy[:, 0] < domain.x2)
        & (xy[:, 1] >= domain.y1) & (xy[:, 1] < domain.y2)
    )
    return xy[inside]


def point_oracle_mismatches(server, result, n_points: int, seed: int) -> int:
    """Points on which an FR answer disagrees with Definition 1-3.

    A point is dense iff its half-open l-square ``(cx - l/2, cx + l/2] x
    (cy - l/2, cy + l/2]`` holds at least ``rho * l^2`` objects, counted
    directly.  Half of the probe points are uniform in the domain; the other
    half sit a hair inside and outside edges of the answer's own rectangles,
    where an off-by-one-edge answer would be wrong.
    """
    query = result.query
    domain = server.config.domain
    rng = np.random.default_rng([seed, 0xC4])
    bounds = result.regions.bounds
    half = n_points // 2
    px = rng.uniform(domain.x1, domain.x2, n_points)
    py = rng.uniform(domain.y1, domain.y2, n_points)
    if len(bounds):
        rects = bounds[rng.integers(0, len(bounds), half)]
        along = rng.uniform(0.0, 1.0, half)
        nudge = rng.choice([-1e-6, 1e-6], half)
        vertical = rng.integers(0, 2, half).astype(bool)  # on an x-edge?
        edge_x = np.where(rng.integers(0, 2, half).astype(bool), rects[:, 0], rects[:, 2])
        edge_y = np.where(rng.integers(0, 2, half).astype(bool), rects[:, 1], rects[:, 3])
        px[:half] = np.where(
            vertical, edge_x + nudge, rects[:, 0] + along * (rects[:, 2] - rects[:, 0])
        )
        py[:half] = np.where(
            vertical, rects[:, 1] + along * (rects[:, 3] - rects[:, 1]), edge_y + nudge
        )
        keep = (px >= domain.x1) & (px < domain.x2) & (py >= domain.y1) & (py < domain.y2)
        px, py = px[keep], py[keep]

    xy = _positions_at(server, query.qt)
    h = query.l / 2.0
    mismatches = 0
    for lo in range(0, len(px), 256):  # bound the (points x rects) temporaries
        cx = px[lo:lo + 256, None]
        cy = py[lo:lo + 256, None]
        count = (
            (cx - h < xy[None, :, 0]) & (xy[None, :, 0] <= cx + h)
            & (cy - h < xy[None, :, 1]) & (xy[None, :, 1] <= cy + h)
        ).sum(axis=1)
        dense = count >= query.min_count
        reported = (
            (bounds[None, :, 0] <= cx) & (cx < bounds[None, :, 2])
            & (bounds[None, :, 1] <= cy) & (cy < bounds[None, :, 3])
        ).any(axis=1)
        mismatches += int((dense != reported).sum())
    return mismatches


def same_region(a, b) -> bool:
    """Do two answers cover the same point set?"""
    ba, bb = a.regions.bounds, b.regions.bounds
    if ba.shape == bb.shape and np.array_equal(
        ba[np.lexsort(ba.T[::-1])], bb[np.lexsort(bb.T[::-1])]
    ):
        return True  # same rectangles, possibly in another order
    return a.regions.symmetric_difference_area(b.regions) == 0.0
