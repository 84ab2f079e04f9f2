"""Interval PDR queries (Definition 5).

An interval query ``(rho, l, [qt1, qt2])`` is the union of the snapshot
answers across the integer timestamps of the interval.  Any snapshot
evaluator (FR, PA, DH, brute force) can be lifted via
:func:`evaluate_interval`; statistics are summed across the constituent
snapshots.

:func:`evaluate_interval_fr` is the one exact interval path — what
``PDRServer.query_interval("fr", ...)`` runs; the lifted union over FR is
its oracle in the tests and ablation AB-5, not a second serving path.  It
classifies cells once for the whole interval
(:mod:`repro.histogram.interval_filter`) so a cell that is wholly dense at
*any* timestamp is emitted without refinement, and the remaining candidate
cells are swept only at the timestamps where they individually need it.
The pending (timestamp, candidate mask) pairs then go through FR's one
refinement routine, :meth:`repro.methods.fr.FRMethod.refine`, in a single
call: every timestamp's bands share one index traversal — adjacent
timestamps touch nearly identical pages, so each page is read and charged
once for the whole interval instead of once per snapshot — and one kernel
pass.  Combined with the histogram's epoch-keyed per-timestamp
prefix-sum memoisation, an interval query does not recompute each snapshot
from scratch.  The answer is one bounds array — the union-accepted cells
(:meth:`~repro.histogram.density_histogram.DensityHistogram.cell_bounds`)
followed by the refined rectangles — left unnormalised: accepted cells of
one timestamp may overlap refined rectangles of another.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from ..core.query import (
    IntervalPDRQuery,
    QueryResult,
    QueryStats,
    SnapshotPDRQuery,
)
from ..core.regions import RegionSet
from ..histogram.interval_filter import filter_query_interval
from ..storage.pages import RANDOM_IO_SECONDS

__all__ = ["evaluate_interval", "evaluate_interval_fr"]

SnapshotEvaluator = Callable[[SnapshotPDRQuery], QueryResult]


def evaluate_interval(
    evaluate_snapshot: SnapshotEvaluator, query: IntervalPDRQuery
) -> QueryResult:
    """Union of snapshot answers over ``[qt1, qt2]`` with merged statistics."""
    regions = RegionSet()
    stats = QueryStats()
    for snapshot in query.snapshots():
        result = evaluate_snapshot(snapshot)
        regions = regions.union(result.regions)
        stats = stats.merged_with(result.stats)
    stats.method = (stats.method or "snapshot") + "-interval"
    return QueryResult(regions=regions, stats=stats, query=None)


def evaluate_interval_fr(fr_method, query: IntervalPDRQuery) -> QueryResult:
    """Exact interval answer with interval-level filtering (see module doc).

    ``fr_method`` is an :class:`~repro.methods.fr.FRMethod`; its histogram
    and index are used directly.
    """
    histogram = fr_method.histogram
    buffer = fr_method.tree.buffer
    io_before = buffer.stats.misses if buffer is not None else 0
    start = time.perf_counter()

    filtered = filter_query_interval(histogram, query)
    refined = fr_method.refine(
        sorted(filtered.pending.items()), query.l, query.rho * query.l * query.l
    )
    regions = RegionSet.from_bounds(
        np.concatenate([histogram.cell_bounds(filtered.accepted), refined.bounds])
    )

    cpu = time.perf_counter() - start
    io_count = (buffer.stats.misses - io_before) if buffer is not None else 0
    stats = QueryStats(
        method="fr-interval",
        cpu_seconds=cpu,
        io_count=io_count,
        io_seconds=io_count * RANDOM_IO_SECONDS,
        accepted_cells=filtered.accepted_count,
        rejected_cells=filtered.rejected_count,
        candidate_cells=filtered.candidate_count,
        objects_examined=refined.objects_examined,
    )
    stats.extra.update(refined.extra)
    stats.extra["refinement_snapshots"] = float(filtered.refinement_snapshots())
    return QueryResult(regions=regions, stats=stats, query=None)
