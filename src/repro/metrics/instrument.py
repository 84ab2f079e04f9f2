"""Instrumentation wrappers for update-cost measurement (Figure 9(b)).

A :class:`TimedListener` decorates any
:class:`~repro.motion.updates.UpdateListener` and accumulates the CPU spent
in its wave hook into an :class:`~repro.metrics.cost.UpdateCostTimer`, so
the harness can report the per-update maintenance cost of the density
histogram and the polynomial approximation separately while both consume
the same update stream.  The advance hook, which builds the ring slots
entering the window, is charged too.
"""

from __future__ import annotations

import time

from ..motion.updates import Columns, UpdateListener, Wave
from .cost import UpdateCostTimer

__all__ = ["TimedListener"]


class TimedListener(UpdateListener):
    """Forwards the update stream to ``inner``, timing the wave hook.

    The timer is charged once per contained update (deletions plus
    insertions), so per-update averages stay comparable across wave sizes.
    """

    def __init__(self, inner: UpdateListener, timer: UpdateCostTimer = None) -> None:
        self.inner = inner
        self.timer = timer if timer is not None else UpdateCostTimer()

    def on_report_batch(self, wave: Wave) -> None:
        start = time.perf_counter()
        self.inner.on_report_batch(wave)
        self.timer.record(
            time.perf_counter() - start, updates=len(wave.deleted) + len(wave.inserted)
        )

    def on_advance(self, tnow: int, motions: Columns) -> None:
        # An advance materialises the slots entering the ring: insertion
        # work moved off the reports, so it is charged, to no update.
        start = time.perf_counter()
        self.inner.on_advance(tnow, motions)
        self.timer.record(time.perf_counter() - start, updates=0)
