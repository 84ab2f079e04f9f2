"""FilterQuery — the filtering step of the FR method (Section 5.2).

For a query ``(rho, l, q_t)`` with grid cell edge ``l_c <= l/2``:

* the **conservative neighborhood** ``C_ij`` of cell ``c_ij`` is the block of
  cells within Chebyshev radius ``eta_l - 1`` of it, where ``eta_l =
  floor(l / (2 l_c))``.  Every point of ``c_ij`` has ``C_ij`` entirely inside
  its l-square, so ``|C_ij| >= rho l^2`` proves the whole cell dense
  (**accept**);
* the **expansive neighborhood** ``E_ij`` is the block within radius
  ``eta_h = ceil(l / (2 l_c))``.  Every point's l-square is entirely inside
  ``E_ij``, so ``|E_ij| < rho l^2`` proves the cell nowhere dense
  (**reject**);
* everything else is a **candidate** passed to the refinement step.

Both block counts are computed for all ``m^2`` cells at once from 2-D prefix
sums, so the filter is O(m^2) independent of the object count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..core.errors import InvalidParameterError
from ..core.query import SnapshotPDRQuery
from ..core.regions import RegionSet
from .density_histogram import DensityHistogram

__all__ = ["FilterResult", "filter_query", "neighborhood_radii"]

# Counts are integers and rho*l^2 arrives through float arithmetic; nudge the
# threshold down by an epsilon so "count == rho*l^2" classifies as dense.
_THRESHOLD_EPS = 1e-9


def neighborhood_radii(l: float, cell_edge: float) -> Tuple[int, int]:
    """``(eta_l, eta_h)`` for neighborhood construction.

    Requires ``cell_edge <= l/2`` (Algorithm 1's precondition), which makes
    ``eta_l >= 1`` so the conservative neighborhood is never empty.
    """
    if cell_edge > l / 2.0 + 1e-12:
        raise InvalidParameterError(
            f"filter step requires cell edge <= l/2 (cell={cell_edge}, l={l}); "
            "use a finer histogram or a larger l"
        )
    ratio = l / (2.0 * cell_edge)
    eta_l = int(math.floor(ratio + 1e-12))
    eta_h = int(math.ceil(ratio - 1e-12))
    return eta_l, eta_h


@dataclass
class FilterResult:
    """Cell classification produced by the filtering step.

    ``accepted``/``rejected``/``candidate`` are boolean ``m x m`` masks
    (indexed ``[i, j]`` = column, row to match
    :meth:`DensityHistogram.cell_rect`); a mask becomes rectangles through
    :meth:`DensityHistogram.cell_bounds` and nowhere else.
    """

    histogram: DensityHistogram
    query: SnapshotPDRQuery
    accepted: np.ndarray
    rejected: np.ndarray
    candidate: np.ndarray

    @property
    def accepted_count(self) -> int:
        return int(self.accepted.sum())

    @property
    def rejected_count(self) -> int:
        return int(self.rejected.sum())

    @property
    def candidate_count(self) -> int:
        return int(self.candidate.sum())

    def accepted_region(self) -> RegionSet:
        return RegionSet.from_bounds(
            self.histogram.cell_bounds(self.accepted), disjoint=True
        )

    def candidate_region(self) -> RegionSet:
        return RegionSet.from_bounds(
            self.histogram.cell_bounds(self.candidate), disjoint=True
        )


def filter_query(histogram: DensityHistogram, query: SnapshotPDRQuery) -> FilterResult:
    """Run the filtering step (Algorithm 1) for ``query``."""
    eta_l, eta_h = neighborhood_radii(query.l, histogram.cell_edge)
    # Memoized per (qt, radius) until the next counter mutation: monitors,
    # interval evaluation and repeated same-timestamp queries pay for the
    # prefix sums once (see DensityHistogram.block_sums_at).  The wider
    # radius comes first, so one padded prefix serves both.
    n_expansive = histogram.block_sums_at(query.qt, eta_h)
    n_conservative = histogram.block_sums_at(query.qt, eta_l - 1)
    threshold = query.min_count - _THRESHOLD_EPS
    accepted = n_conservative >= threshold
    rejected = ~accepted & (n_expansive < threshold)
    candidate = ~accepted & ~rejected
    return FilterResult(
        histogram=histogram,
        query=query,
        accepted=accepted,
        rejected=rejected,
        candidate=candidate,
    )
