"""Dense-cell queries — the baseline of Hadjieleftheriou et al. (SSTD 2003).

The method the paper criticises first (Section 1.1): partition the space
into disjoint grid cells and report the cells whose *region density*
(object count / cell area) reaches the threshold.  Because only whole cells
are examined, a dense cluster straddling a cell boundary is missed entirely
— the *answer loss* problem illustrated by Figure 1(a).

We implement it against the same density histogram the FR method maintains,
so the comparison in the examples is apples-to-apples.
"""

from __future__ import annotations

import time

from ..core.query import QueryResult, QueryStats, SnapshotPDRQuery
from ..core.regions import RegionSet
from ..histogram.density_histogram import DensityHistogram

__all__ = ["dense_cell_query"]

_THRESHOLD_EPS = 1e-9


def dense_cell_query(
    histogram: DensityHistogram, query: SnapshotPDRQuery
) -> QueryResult:
    """Cells whose region density is at least ``query.rho`` at ``query.qt``.

    ``query.l`` is ignored — this baseline has no notion of a point
    neighborhood, which is precisely its limitation.
    """
    start = time.perf_counter()
    counts = histogram.counts_at(query.qt)
    cell_area = histogram.cell_edge * histogram.cell_edge_y
    needed = query.rho * cell_area - _THRESHOLD_EPS
    regions = RegionSet.from_bounds(
        histogram.cell_bounds(counts >= needed), disjoint=True
    )
    cpu = time.perf_counter() - start
    stats = QueryStats(method="dense-cell", cpu_seconds=cpu)
    return QueryResult(regions=regions, stats=stats, query=query)
