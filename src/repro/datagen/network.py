"""Synthetic metropolitan road network.

The paper drives its evaluation with objects moving on the Chicago
metropolitan road network (generated with the tool of Forlizzi et al.).
That dataset is not redistributable, so we substitute a synthetic network
that reproduces the property the experiments actually depend on: a *skewed*
spatial distribution of moving objects, with heavy concentrations around a
central business district and secondary hubs connected by a street lattice
(see DESIGN.md, Substitutions).

The network is a ``grid_n x grid_n`` lattice of intersections covering the
domain.  Every node carries an attraction *weight* from a mixture of
Gaussian hubs; trips are sampled hub-biased, so traffic concentrates along
corridors between hubs exactly the way arterial roads concentrate traffic.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import DatagenError
from ..core.geometry import Rect

__all__ = ["Hub", "RoadNetwork", "synthetic_metro"]


@dataclass(frozen=True)
class Hub:
    """An attraction centre: position, peak weight and Gaussian radius."""

    x: float
    y: float
    weight: float
    radius: float


def choice_cdf(p: np.ndarray) -> List[float]:
    """The CDF ``Generator.choice(n, p=p)`` searches, built with its own
    steps (``p.cumsum()``, then divided by the last entry).

    ``bisect.bisect_right(cdf, rng.random())`` is then the index
    ``rng.choice(n, p=p)`` would draw, from the same one ``random()`` draw,
    and ``np.searchsorted(cdf, rng.random(size), side="right")`` the array
    ``rng.choice(n, size=size, p=p)`` would.
    """
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


class RoadNetwork:
    """A lattice road network with hub-weighted intersections.

    Adjacency is one CSR table: the neighbours of node ``i`` are
    ``neighbor_ids[neighbor_start[i]:neighbor_start[i + 1]]``, in the order
    :meth:`greedy_step` breaks ties in.
    """

    def __init__(
        self,
        domain: Rect,
        positions: np.ndarray,
        neighbor_start: np.ndarray,
        neighbor_ids: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        if len(positions) + 1 != len(neighbor_start) or len(positions) != len(weights):
            raise DatagenError("positions, neighbor_start and weights must align")
        if len(positions) == 0:
            raise DatagenError("a road network needs at least one node")
        self.domain = domain
        self.positions = positions
        self.neighbor_start = np.asarray(neighbor_start, dtype=np.int64)
        self.neighbor_ids = np.asarray(neighbor_ids, dtype=np.int64)
        if self.neighbor_start[-1] != len(self.neighbor_ids):
            raise DatagenError("neighbor_start must end at len(neighbor_ids)")
        self.weights = weights
        total = float(weights.sum())
        if total <= 0:
            raise DatagenError("node weights must have positive mass")
        self._cdf = choice_cdf(weights / total)
        # Per-event lookups read Python scalars and flat neighbour
        # coordinates rather than indexing numpy per call.
        self._xy = [tuple(xy) for xy in positions.tolist()]
        self._start = self.neighbor_start.tolist()
        self._neighbor_x = positions[self.neighbor_ids, 0]
        self._neighbor_y = positions[self.neighbor_ids, 1]

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        return len(self.positions)

    def node_position(self, node: int) -> Tuple[float, float]:
        return self._xy[node]

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample_node(self, rng: np.random.Generator) -> int:
        """A node drawn proportionally to its attraction weight: the node
        ``rng.choice(node_count, p=weights / weights.sum())`` draws."""
        return bisect_right(self._cdf, rng.random())

    def sample_nodes(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` draws of :meth:`sample_node`, from the same CDF."""
        return np.searchsorted(self._cdf, rng.random(size), side="right")

    def greedy_step(
        self, current: int, destination: int, rng: np.random.Generator
    ) -> int:
        """Next intersection when driving from ``current`` toward ``destination``.

        Chooses the neighbour closest to the destination, with random
        tie-breaking, which routes trips along (Manhattan) shortest paths of
        the lattice — i.e. along corridors.
        """
        if current == destination:
            return current
        start, stop = self._start[current], self._start[current + 1]
        if start == stop:
            return current
        dest_x, dest_y = self._xy[destination]
        dists = np.hypot(
            self._neighbor_x[start:stop] - dest_x, self._neighbor_y[start:stop] - dest_y
        ).tolist()
        limit = min(dists) + 1e-9
        candidates = [k for k, dist in enumerate(dists) if dist <= limit]
        if len(candidates) > 1:
            k = candidates[rng.integers(len(candidates))]
        else:
            # rng.integers(1) returns 0 without drawing, so skipping it
            # leaves the stream where the call would.
            k = candidates[0]
        return int(self.neighbor_ids[start + k])

    def nearest_node(self, x: float, y: float) -> int:
        d = np.hypot(self.positions[:, 0] - x, self.positions[:, 1] - y)
        return int(d.argmin())


def synthetic_metro(
    domain: Rect,
    grid_n: int = 40,
    hubs: Optional[Sequence[Hub]] = None,
    base_weight: float = 0.05,
    seed: int = 0,
) -> RoadNetwork:
    """Build the default synthetic metropolitan network.

    Args:
        domain: world rectangle the lattice covers.
        grid_n: intersections per side.
        hubs: attraction centres; defaults to one strong CBD slightly
            off-centre plus four secondary hubs, mimicking a metro area.
        base_weight: weight floor so every node remains reachable as a
            destination (keeps some background traffic everywhere).
        seed: perturbs intersection positions slightly so network edges do
            not align perfectly with histogram cell boundaries.
    """
    if grid_n < 2:
        raise DatagenError(f"grid_n must be >= 2, got {grid_n}")
    rng = np.random.default_rng(seed)
    w, h = domain.width, domain.height
    if hubs is None:
        hubs = [
            Hub(domain.x1 + 0.52 * w, domain.y1 + 0.48 * h, 10.0, 0.06 * w),
            Hub(domain.x1 + 0.25 * w, domain.y1 + 0.70 * h, 4.0, 0.05 * w),
            Hub(domain.x1 + 0.75 * w, domain.y1 + 0.30 * h, 4.0, 0.05 * w),
            Hub(domain.x1 + 0.20 * w, domain.y1 + 0.22 * h, 2.5, 0.04 * w),
            Hub(domain.x1 + 0.80 * w, domain.y1 + 0.78 * h, 2.5, 0.04 * w),
        ]

    # Lattice positions, jittered by a small fraction of the spacing.
    sx = w / grid_n
    sy = h / grid_n
    gx, gy = np.meshgrid(np.arange(grid_n), np.arange(grid_n), indexing="ij")
    px = domain.x1 + (gx + 0.5) * sx
    py = domain.y1 + (gy + 0.5) * sy
    px = px + rng.uniform(-0.15, 0.15, px.shape) * sx
    py = py + rng.uniform(-0.15, 0.15, py.shape) * sy
    positions = np.stack([px.ravel(), py.ravel()], axis=1)

    # Lattice adjacency in CSR form; each node lists its neighbours in the
    # order (i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1).
    ids = np.arange(grid_n * grid_n).reshape(grid_n, grid_n)
    steps = [
        np.pad(ids[:-1, :], ((1, 0), (0, 0)), constant_values=-1),
        np.pad(ids[1:, :], ((0, 1), (0, 0)), constant_values=-1),
        np.pad(ids[:, :-1], ((0, 0), (1, 0)), constant_values=-1),
        np.pad(ids[:, 1:], ((0, 0), (0, 1)), constant_values=-1),
    ]
    table = np.stack([step.ravel() for step in steps], axis=1)
    present = table >= 0
    neighbor_start = np.concatenate([[0], np.cumsum(present.sum(axis=1))])
    neighbor_ids = table[present]

    weights = np.full(len(positions), base_weight)
    for hub in hubs:
        d2 = (positions[:, 0] - hub.x) ** 2 + (positions[:, 1] - hub.y) ** 2
        weights = weights + hub.weight * np.exp(-d2 / (2.0 * hub.radius**2))
    return RoadNetwork(domain, positions, neighbor_start, neighbor_ids, weights)
