"""Cost aggregation for the experiment harness.

The paper reports *average per-update* maintenance cost (Figure 9(b));
:class:`UpdateCostTimer` accumulates raw timings and exposes that average.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["UpdateCostTimer"]


@dataclass
class UpdateCostTimer:
    """Accumulates per-update maintenance CPU (Figure 9(b))."""

    total_seconds: float = 0.0
    updates: int = 0

    def record(self, seconds: float, updates: int = 1) -> None:
        self.total_seconds += seconds
        self.updates += updates

    @property
    def mean_seconds_per_update(self) -> float:
        return self.total_seconds / self.updates if self.updates else 0.0

    @property
    def mean_millis_per_update(self) -> float:
        return 1000.0 * self.mean_seconds_per_update
