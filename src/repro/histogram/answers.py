"""Stand-alone DH answers (the baseline of Figures 8-9).

The filtering step alone can serve as a (coarse) approximate PDR evaluator:

* **optimistic DH** adds every candidate cell to the answer — no false
  negatives, potentially large false-positive area;
* **pessimistic DH** drops every candidate cell — no false positives,
  potentially large false-negative area.

The paper uses these two variants to show that histograms alone are not an
adequate PDR method (their error ratios reach 100-200 %), motivating both
the refinement step of FR and the PA method.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.query import QueryResult, QueryStats, SnapshotPDRQuery
from ..core.regions import RegionSet
from ..telemetry import TELEMETRY
from .density_histogram import DensityHistogram
from .filter import filter_query

__all__ = ["dh_optimistic", "dh_pessimistic"]


def _answer(
    histogram: DensityHistogram,
    query: SnapshotPDRQuery,
    include_candidates: bool,
    method: str,
) -> QueryResult:
    hits_before = histogram.cache_hits
    misses_before = histogram.cache_misses
    start = time.perf_counter()
    result = filter_query(histogram, query)
    bounds = histogram.cell_bounds(result.accepted)
    if include_candidates:
        bounds = np.concatenate([bounds, histogram.cell_bounds(result.candidate)])
    # Accepted and candidate are exclusive masks: distinct cells, disjoint.
    region = RegionSet.from_bounds(bounds, disjoint=True)
    cpu = time.perf_counter() - start
    TELEMETRY.tracer.record_span("filter", cpu)
    stats = QueryStats(
        method=method,
        cpu_seconds=cpu,
        accepted_cells=result.accepted_count,
        rejected_cells=result.rejected_count,
        candidate_cells=result.candidate_count,
    )
    stats.extra["cache_hits"] = float(histogram.cache_hits - hits_before)
    stats.extra["cache_misses"] = float(histogram.cache_misses - misses_before)
    return QueryResult(regions=region, stats=stats, query=query)


def dh_optimistic(histogram: DensityHistogram, query: SnapshotPDRQuery) -> QueryResult:
    """Accepts plus candidates: zero false negatives."""
    return _answer(histogram, query, include_candidates=True, method="dh-optimistic")


def dh_pessimistic(histogram: DensityHistogram, query: SnapshotPDRQuery) -> QueryResult:
    """Accepts only: zero false positives."""
    return _answer(histogram, query, include_candidates=False, method="dh-pessimistic")
