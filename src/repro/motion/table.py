"""The server-side object table.

:class:`ObjectTable` is the central registry of current motions.  It owns the
server clock ``t_now``, expands position reports into the delete+insert
protocol of :mod:`repro.motion.updates`, and fans both updates and clock
advances out to its registered listeners (histograms, polynomial
approximators, the TPR-tree, ...).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.errors import InvalidParameterError, ListenerFanoutError, QueryError
from ..telemetry import instruments as tm
from .model import Motion
from .updates import (
    DeleteUpdate,
    InsertUpdate,
    ReportPair,
    UpdateListener,
    dispatch,
)

__all__ = ["ObjectTable"]


class ObjectTable:
    """Registry of live motions plus the update fan-out bus."""

    def __init__(self, tnow: int = 0) -> None:
        self._motions: Dict[int, Motion] = {}
        self._tnow = tnow
        self._listeners: List[UpdateListener] = []

    # ------------------------------------------------------------------
    # listeners and clock
    # ------------------------------------------------------------------
    def add_listener(self, listener: UpdateListener) -> None:
        self._listeners.append(listener)

    def remove_listener(self, listener: UpdateListener) -> None:
        self._listeners.remove(listener)

    @property
    def tnow(self) -> int:
        return self._tnow

    def advance_to(self, tnow: int) -> None:
        """Move the server clock forward and notify listeners."""
        if tnow < self._tnow:
            raise InvalidParameterError(
                f"clock cannot move backwards ({self._tnow} -> {tnow})"
            )
        if tnow == self._tnow:
            return
        self._tnow = tnow
        dispatch(self._listeners, "on_advance", tnow)

    # ------------------------------------------------------------------
    # update protocol
    # ------------------------------------------------------------------
    def report(self, oid: int, x: float, y: float, vx: float, vy: float) -> Motion:
        """Process a position report for ``oid`` at the current time.

        A report from a known object first retracts the object's previous
        motion (a deletion update), then registers the new one (an insertion
        update), exactly as Section 5.1 prescribes.
        """
        new_motion = Motion(oid, self._tnow, x, y, vx, vy)
        old_motion = self._motions.get(oid)
        # The delete+insert protocol must run to completion even if a
        # listener fails half-way: otherwise the table and the structures
        # that *did* process the delete would disagree about the object.
        failures = []
        if old_motion is not None:
            delete = DeleteUpdate(self._tnow, old_motion)
            try:
                dispatch(self._listeners, "on_delete", delete)
            except ListenerFanoutError as exc:
                failures.extend(exc.failures)
        insert = InsertUpdate(self._tnow, new_motion)
        self._motions[oid] = new_motion
        try:
            dispatch(self._listeners, "on_insert", insert)
        except ListenerFanoutError as exc:
            failures.extend(exc.failures)
        if failures:
            raise ListenerFanoutError(
                f"{len(failures)} listener failure(s) while reporting object {oid}",
                failures=failures,
            )
        return new_motion

    def report_batch(
        self, reports: Sequence[Tuple[int, float, float, float, float]]
    ) -> List[Motion]:
        """Process a wave of position reports in batched listener dispatches.

        ``reports`` is a sequence of ``(oid, x, y, vx, vy)`` tuples, all
        effective at the current time.  Listeners receive the wave through
        ``on_report_batch`` (one dispatch per wave instead of two per
        report); an oid reported more than once splits the input into
        consecutive waves so every wave retracts at most one motion per
        object, preserving the sequential delete+insert semantics exactly.
        """
        results: List[Motion] = []
        failures = []
        wave: List[ReportPair] = []
        seen_in_wave = set()

        def flush() -> None:
            if not wave:
                return
            pairs = list(wave)
            wave.clear()
            seen_in_wave.clear()
            tm.INGEST_WAVES.inc()
            tm.INGEST_WAVE_SIZE.observe(len(pairs))
            try:
                dispatch(self._listeners, "on_report_batch", pairs)
            except ListenerFanoutError as exc:
                failures.extend(exc.failures)

        for oid, x, y, vx, vy in reports:
            if oid in seen_in_wave:
                tm.INGEST_WAVE_SPLITS.inc()
                flush()
            new_motion = Motion(oid, self._tnow, x, y, vx, vy)
            old_motion = self._motions.get(oid)
            delete = (
                DeleteUpdate(self._tnow, old_motion) if old_motion is not None else None
            )
            self._motions[oid] = new_motion
            wave.append((delete, InsertUpdate(self._tnow, new_motion)))
            seen_in_wave.add(oid)
            results.append(new_motion)
        flush()
        if failures:
            raise ListenerFanoutError(
                f"{len(failures)} listener failure(s) while reporting a batch "
                f"of {len(results)} object(s)",
                failures=failures,
            )
        return results

    def retire(self, oid: int) -> None:
        """Remove ``oid`` permanently (e.g. a vehicle leaving the region)."""
        motion = self._motions.pop(oid, None)
        if motion is None:
            raise QueryError(f"cannot retire unknown object {oid}")
        delete = DeleteUpdate(self._tnow, motion)
        dispatch(self._listeners, "on_delete", delete)

    def restore(self, motions, tnow: int) -> None:
        """Restore a snapshot: set registry and clock WITHOUT notifications.

        Only :mod:`repro.storage.snapshot` should call this — listeners must
        be restored through their own state, not by replaying updates.
        """
        if self._motions:
            raise QueryError("restore() requires an empty table")
        for motion in motions:
            self._motions[motion.oid] = motion
        self._tnow = tnow

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._motions)

    def __contains__(self, oid: int) -> bool:
        return oid in self._motions

    def motion_of(self, oid: int) -> Optional[Motion]:
        return self._motions.get(oid)

    def motions(self) -> Iterator[Motion]:
        return iter(self._motions.values())

    def positions_at(self, t: float):
        """Yield ``(oid, x, y)`` for every live object at time ``t``."""
        for motion in self._motions.values():
            x, y = motion.position_at(t)
            yield (motion.oid, x, y)
