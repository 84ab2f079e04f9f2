"""Brute-force exact PDR evaluation — the library's ground-truth oracle.

Runs the plane-sweep of :mod:`repro.sweep.plane_sweep` over the *entire*
domain with every object position, bypassing histogram, index and buffer
pool.  It is exact (the density field is piecewise constant between sweep
events) and is used as the reference answer ``D`` for the accuracy metrics
of Section 7.2 and for cross-checking FR in the test suite.
"""

from __future__ import annotations

import time
from typing import Sequence, Tuple

from ..core.geometry import Rect
from ..core.query import QueryResult, QueryStats, SnapshotPDRQuery
from ..motion.updates import Columns
from ..sweep.plane_sweep import refine_cell

__all__ = ["bruteforce_pdr", "bruteforce_from_motions"]


def bruteforce_pdr(
    positions: Sequence[Tuple[float, float]],
    domain: Rect,
    query: SnapshotPDRQuery,
) -> QueryResult:
    """Exact dense regions in ``domain`` for objects at ``positions``."""
    start = time.perf_counter()
    regions = refine_cell(list(positions), domain, query.l, query.min_count)
    cpu = time.perf_counter() - start
    stats = QueryStats(
        method="bruteforce", cpu_seconds=cpu, objects_examined=len(positions)
    )
    return QueryResult(regions=regions, stats=stats, query=query)


def bruteforce_from_motions(
    motions: Columns, domain: Rect, query: SnapshotPDRQuery
) -> QueryResult:
    """Exact dense regions for moving objects evaluated at the query time.

    Objects whose predicted position falls outside the domain contribute
    nothing: the paper models objects "moving in an L x L region", and every
    maintained structure (histogram, polynomials) shares that convention.
    """
    x, y = motions.positions_at(query.qt)
    inside = domain.contains_points(x, y)
    return bruteforce_pdr(list(zip(x[inside].tolist(), y[inside].tolist())), domain, query)
