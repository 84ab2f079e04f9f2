"""Order statistics shared by the harness and ``compare.py``."""

from __future__ import annotations

import statistics
from typing import List, Sequence, Tuple

__all__ = ["median", "quartiles", "tail", "rate_median"]


def median(values: Sequence[float]) -> float:
    """Median, or 0.0 for a layer that did no work in this workload."""
    return float(statistics.median(values)) if values else 0.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) exactly as the driver computes them."""
    if len(values) < 2:
        v = float(values[0]) if values else 0.0
        return (v, v, v)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (float(q1), float(q2), float(q3))


def tail(values: Sequence[float]) -> float:
    """The highest percentile with at least ten samples beyond it.

    With fewer than twenty samples no percentile above the median has ten
    samples beyond it, so the maximum is reported and the sample count
    (always printed next to a tail) says how little it means.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[-11] if len(ordered) >= 20 else ordered[-1])


def rate_median(blocks: Sequence[Tuple[int, float]]) -> float:
    """Median over blocks of ``count / busy seconds``.

    One scheduler stall moves one block, not the metric.
    """
    rates: List[float] = [count / seconds for count, seconds in blocks if seconds > 0]
    return median(rates)
