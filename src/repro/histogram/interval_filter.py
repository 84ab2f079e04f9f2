"""Interval-query classification over density histograms.

Definition 5's interval PDR query is the union of snapshot answers over
``[qt1, qt2]``.  Evaluating the DH filter once per timestamp repeats the
prefix-sum work ``T`` times; this module classifies cells for the *union*
directly:

* a cell is **accepted** for the interval iff it is accepted at *some*
  timestamp (it is wholly dense then, hence in the union);
* a cell is **rejected** iff it is rejected at *every* timestamp (no point
  of it is ever dense);
* otherwise it is a **candidate** — and the timestamps at which it was
  locally a candidate are exactly the snapshots a refinement step needs to
  sweep it at.

The classification runs one vectorised pass per timestamp but allocates the
output masks once, and returns the per-timestamp masks of cells still to
refine that the interval FR evaluator consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..core.errors import InvalidParameterError
from ..core.query import IntervalPDRQuery
from .density_histogram import DensityHistogram
from .filter import filter_query

__all__ = ["IntervalFilterResult", "filter_query_interval"]


@dataclass
class IntervalFilterResult:
    """Union classification over ``[qt1, qt2]``.

    ``accepted``/``rejected``/``candidate`` are ``m x m`` masks for the
    union semantics above; ``pending`` maps each timestamp to the mask of
    cells still to refine then (snapshot candidates the union did not
    already accept).
    """

    histogram: DensityHistogram
    query: IntervalPDRQuery
    accepted: np.ndarray
    rejected: np.ndarray
    candidate: np.ndarray
    pending: Dict[int, np.ndarray]

    @property
    def accepted_count(self) -> int:
        return int(self.accepted.sum())

    @property
    def rejected_count(self) -> int:
        return int(self.rejected.sum())

    @property
    def candidate_count(self) -> int:
        return int(self.candidate.sum())

    def refinement_snapshots(self) -> int:
        """Total (cell, timestamp) refinement tasks remaining."""
        return sum(int(mask.sum()) for mask in self.pending.values())


def filter_query_interval(
    histogram: DensityHistogram, query: IntervalPDRQuery
) -> IntervalFilterResult:
    """Classify every cell for the interval union (see module docstring)."""
    lo, hi = histogram.window
    if not (lo <= query.qt1 and query.qt2 <= hi):
        raise InvalidParameterError(
            f"interval [{query.qt1}, {query.qt2}] outside maintained window "
            f"[{lo}, {hi}]"
        )
    m = histogram.m
    accepted = np.zeros((m, m), dtype=bool)
    ever_not_rejected = np.zeros((m, m), dtype=bool)
    per_time_candidates: Dict[int, np.ndarray] = {}
    for snapshot in query.snapshots():
        step = filter_query(histogram, snapshot)
        accepted |= step.accepted
        ever_not_rejected |= ~step.rejected
        per_time_candidates[snapshot.qt] = step.candidate
    rejected = ~ever_not_rejected
    candidate = ever_not_rejected & ~accepted
    # Snapshot-candidate cells that the union did not already accept.
    pending = {qt: mask & ~accepted for qt, mask in per_time_candidates.items()}
    return IntervalFilterResult(
        histogram=histogram,
        query=query,
        accepted=accepted,
        rejected=rejected,
        candidate=candidate,
        pending=pending,
    )
