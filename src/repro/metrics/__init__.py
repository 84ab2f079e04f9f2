"""Metrics: accuracy ratios of Section 7.2 and cost accounting of Section 7.3."""

from .accuracy import AccuracyReport, accuracy, false_negative_ratio, false_positive_ratio
from .cost import UpdateCostTimer
from .instrument import TimedListener
from .raster import RasterMeasure

__all__ = [
    "RasterMeasure",
    "accuracy",
    "AccuracyReport",
    "false_positive_ratio",
    "false_negative_ratio",
    "UpdateCostTimer",
    "TimedListener",
]
