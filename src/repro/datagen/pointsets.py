"""Alternative synthetic workloads: free-space random walks.

The road-network workload (:mod:`repro.datagen.trips`) matches the paper's
Chicago setup; the dense-region literature it builds on (Hadjieleftheriou et
al.) also evaluates on free-space synthetic datasets.  This module provides
those: objects placed uniformly or from a Gaussian mixture, moving with
piecewise-constant random velocities, re-reporting at least every ``U``
timestamps and steering back toward the domain when they approach its
border (so the "objects move in an L x L region" assumption holds).

Both workloads implement the same ``initialize`` / ``run_until`` protocol as
:class:`~repro.datagen.trips.TripSimulator`, so any experiment can swap the
movement model with one line.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import DatagenError
from ..core.geometry import Rect
from ..motion.table import ObjectTable
from .network import choice_cdf

__all__ = ["GaussianCluster", "RandomWalkWorkload", "uniform_workload", "clustered_workload"]


def _clip(value: float, low: float, high: float) -> float:
    """``float(np.clip(value, low, high))`` for one float, signed zeros and
    NaN included: a value equal to a bound is returned as it is."""
    value = low if value < low else value
    return float(high if value > high else value)


class GaussianCluster:
    """One mixture component: centre, standard deviation, relative weight."""

    __slots__ = ("x", "y", "sigma", "weight")

    def __init__(self, x: float, y: float, sigma: float, weight: float = 1.0) -> None:
        if sigma <= 0 or weight <= 0:
            raise DatagenError("cluster sigma and weight must be positive")
        self.x = x
        self.y = y
        self.sigma = sigma
        self.weight = weight


class RandomWalkWorkload:
    """Free-space moving objects with periodic re-reports."""

    def __init__(
        self,
        domain: Rect,
        n_objects: int,
        update_interval: int,
        clusters: Optional[Sequence[GaussianCluster]] = None,
        max_speed: float = 1.0,
        seed: int = 0,
    ) -> None:
        if n_objects < 1:
            raise DatagenError(f"need at least one object, got {n_objects}")
        if update_interval < 1:
            raise DatagenError(f"update interval must be >= 1, got {update_interval}")
        if max_speed <= 0:
            raise DatagenError("max_speed must be positive")
        if domain.is_empty():
            raise DatagenError("domain must have positive area")
        self.domain = domain
        self.n_objects = n_objects
        self.update_interval = update_interval
        self.clusters = list(clusters) if clusters else []
        self.max_speed = max_speed
        # Per-report constants: the clamp's upper bounds (the largest
        # coordinates inside the half-open domain) and the mixture's CDF.
        self._x_top = float(np.nextafter(domain.x2, -np.inf))
        self._y_top = float(np.nextafter(domain.y2, -np.inf))
        if self.clusters:
            weights = np.array([c.weight for c in self.clusters])
            self._cluster_cdf = choice_cdf(weights / weights.sum())
        self._rng = np.random.default_rng(seed)
        # Min-heap of report_time * n_objects + oid (see TripSimulator).
        self._events: List[int] = []
        self._initialized = False
        self.reports_issued = 0

    # ------------------------------------------------------------------
    def _sample_position(self) -> Tuple[float, float]:
        rng = self._rng
        if not self.clusters:
            return (
                float(rng.uniform(self.domain.x1, self.domain.x2)),
                float(rng.uniform(self.domain.y1, self.domain.y2)),
            )
        cluster = self.clusters[bisect_right(self._cluster_cdf, rng.random())]
        x = _clip(rng.normal(cluster.x, cluster.sigma), self.domain.x1, self._x_top)
        y = _clip(rng.normal(cluster.y, cluster.sigma), self.domain.y1, self._y_top)
        return x, y

    def _sample_velocity(self, x: float, y: float) -> Tuple[float, float]:
        """A velocity that keeps the object inside over one update period."""
        rng = self._rng
        reach = self.max_speed * self.update_interval
        for _ in range(16):
            speed = float(rng.uniform(0.1, 1.0)) * self.max_speed
            angle = float(rng.uniform(0, 2 * np.pi))
            vx, vy = speed * np.cos(angle), speed * np.sin(angle)
            fx, fy = x + vx * self.update_interval, y + vy * self.update_interval
            if self.domain.contains_point(fx, fy):
                return (float(vx), float(vy))
        # Deep corner case: head for the centre.
        cx, cy = self.domain.center.as_tuple()
        norm = max(np.hypot(cx - x, cy - y), 1e-9)
        speed = 0.5 * self.max_speed
        return (float(speed * (cx - x) / norm), float(speed * (cy - y) / norm))

    # ------------------------------------------------------------------
    def initialize(self, table: ObjectTable) -> None:
        if self._initialized:
            raise DatagenError("workload already initialized")
        t0 = table.tnow
        rng = self._rng
        for oid in range(self.n_objects):
            x, y = self._sample_position()
            vx, vy = self._sample_velocity(x, y)
            table.report(oid, x, y, vx, vy)
            self.reports_issued += 1
            next_t = t0 + 1 + int(rng.integers(self.update_interval))
            heapq.heappush(self._events, next_t * self.n_objects + oid)
        self._initialized = True

    def run_until(self, table: ObjectTable, t_end: int) -> None:
        if not self._initialized:
            raise DatagenError("call initialize() before run_until()")
        if t_end < table.tnow:
            raise DatagenError(f"cannot run backwards to {t_end}")
        for t in range(table.tnow + 1, t_end + 1):
            table.advance_to(t)
            due = (t + 1) * self.n_objects  # keys of report times <= t
            while self._events and self._events[0] < due:
                oid = heapq.heappop(self._events) % self.n_objects
                motion = table.motion_of(oid)
                x, y = motion.position_at(t)
                x = _clip(x, self.domain.x1, self._x_top)
                y = _clip(y, self.domain.y1, self._y_top)
                vx, vy = self._sample_velocity(x, y)
                table.report(oid, x, y, vx, vy)
                self.reports_issued += 1
                heapq.heappush(self._events, (t + self.update_interval) * self.n_objects + oid)

    def step(self, table: ObjectTable) -> None:
        self.run_until(table, table.tnow + 1)


def uniform_workload(
    domain: Rect, n_objects: int, update_interval: int, seed: int = 0, **kwargs
) -> RandomWalkWorkload:
    """Uniformly placed random walkers (no spatial skew)."""
    return RandomWalkWorkload(
        domain, n_objects, update_interval, clusters=None, seed=seed, **kwargs
    )


def clustered_workload(
    domain: Rect,
    n_objects: int,
    update_interval: int,
    n_clusters: int = 5,
    sigma_fraction: float = 0.03,
    seed: int = 0,
    **kwargs,
) -> RandomWalkWorkload:
    """Gaussian-mixture placement: ``n_clusters`` hotspots of random weight."""
    if n_clusters < 1:
        raise DatagenError("need at least one cluster")
    rng = np.random.default_rng(seed)
    clusters = [
        GaussianCluster(
            x=float(rng.uniform(domain.x1 + 0.1 * domain.width,
                                domain.x2 - 0.1 * domain.width)),
            y=float(rng.uniform(domain.y1 + 0.1 * domain.height,
                                domain.y2 - 0.1 * domain.height)),
            sigma=sigma_fraction * domain.width * float(rng.uniform(0.5, 2.0)),
            weight=float(rng.uniform(0.5, 2.0)),
        )
        for _ in range(n_clusters)
    ]
    return RandomWalkWorkload(
        domain, n_objects, update_interval, clusters=clusters, seed=seed + 1, **kwargs
    )
