"""The server-side object table.

:class:`ObjectTable` is the one owner of the current motions: it stores them
as structure-of-arrays numpy columns (a row per object), owns the server
clock ``t_now``, renders position reports as the delete+insert
:class:`~repro.motion.updates.Wave` of Section 5.1, and fans waves and clock
advances out to its registered listeners (histograms, polynomial
approximators, the TPR-tree, ...).  Listeners that index motions (the
TPR-tree) hold table *rows* and read the columns here; nothing else keeps a
copy.
"""

from __future__ import annotations

from itertools import starmap
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import InvalidParameterError, ListenerFanoutError, QueryError
from ..telemetry import instruments as tm
from .model import Motion
from .updates import Columns, UpdateListener, Wave, dispatch

__all__ = ["ObjectTable"]

_INITIAL_CAPACITY = 1024


class ObjectTable:
    """Columnar registry of live motions plus the update fan-out bus."""

    def __init__(self, tnow: int = 0) -> None:
        # Row r of every column is one motion; rows outside _row_of's values
        # (never handed out, or freed by a retire) hold garbage.
        self._oid = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._t_ref = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._xyv = np.empty((4, _INITIAL_CAPACITY))  # x, y, vx, vy
        self._row_of: Dict[int, int] = {}  # oid -> row, in first-report order
        # _row_of's rows as an array, kept between first reports and retires
        # (a first report appends, a retire drops it until the next read).
        self._live: Optional[np.ndarray] = np.empty(0, dtype=np.intp)
        self._free: List[int] = []  # retired rows, reused last-freed first
        self._used = 0  # rows [0, _used) have been handed out at least once
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
        """Move the server clock forward and notify listeners, handing them
        the live motions (one gather per advance) for the ring slots that
        enter their window."""
        if tnow < self._tnow:
            raise InvalidParameterError(
                f"clock cannot move backwards ({self._tnow} -> {tnow})"
            )
        if tnow == self._tnow:
            return
        self._tnow = tnow
        dispatch(self._listeners, "on_advance", tnow, self.columns())

    # ------------------------------------------------------------------
    # update protocol
    # ------------------------------------------------------------------
    def report(self, oid: int, x: float, y: float, vx: float, vy: float) -> Motion:
        """Process a position report for ``oid`` at the current time: a
        one-row :meth:`report_batch`."""
        return self.report_batch([(oid, x, y, vx, vy)])[0]

    def report_batch(
        self, reports: Sequence[Tuple[int, float, float, float, float]]
    ) -> List[Motion]:
        """Process a wave of ``(oid, x, y, vx, vy)`` reports, all effective
        at the current time.

        A report from a known object retracts the object's previous motion
        and registers the new one, exactly as Section 5.1 prescribes;
        listeners receive the whole wave in one ``on_report_batch`` call.
        An oid reported more than once splits the input into consecutive
        waves, so every wave retracts at most one motion per object.  A
        wave's rows are committed before its listeners run, and a failing
        listener stops neither the listeners after it nor the waves after
        this one: the failures are raised together at the end.
        """
        motions = [Motion(oid, self._tnow, x, y, vx, vy) for oid, x, y, vx, vy in reports]
        failures = []
        for wave in self._unique_runs(reports):
            try:
                self._apply(wave, [])
            except ListenerFanoutError as exc:
                failures.extend(exc.failures)
        if failures:
            raise ListenerFanoutError(
                f"{len(failures)} listener failure(s) while reporting a batch "
                f"of {len(motions)} object(s)",
                failures=failures,
            )
        return motions

    @staticmethod
    def _unique_runs(reports: Sequence[tuple]) -> Iterator[Sequence[tuple]]:
        """Cut ``reports`` into consecutive runs that name no oid twice."""
        start = 0
        seen = set()
        for i, report in enumerate(reports):
            if report[0] in seen:
                tm.INGEST_WAVE_SPLITS.inc()
                yield reports[start:i]
                start = i
                seen.clear()
            seen.add(report[0])
        yield reports[start:]

    def retire(self, oid: int) -> None:
        """Remove ``oid`` permanently (e.g. a vehicle leaving the region)."""
        row = self._row_of.pop(oid, None)
        if row is None:
            raise QueryError(f"cannot retire unknown object {oid}")
        self._free.append(row)
        self._live = None
        self._apply([], [row])

    def _apply(self, reports: Sequence[tuple], retired_rows: List[int]) -> None:
        """The one write body: build one :class:`Wave`, commit it, dispatch it.

        ``reports`` name each oid at most once; ``retired_rows`` are already
        unmapped.  The retracted motions are gathered (copied) before any
        row is written, because a re-report overwrites its row in place and
        a first report may take a row a retire just freed.
        """
        n = len(reports)
        if n == 0 and not retired_rows:
            return
        if n:
            tm.INGEST_WAVES.inc()
            tm.INGEST_WAVE_SIZE.observe(n)
        oids, *xyv = zip(*reports) if n else [()] * 5
        oid = np.array(oids, dtype=np.int64)
        inserted = Columns(
            oid, np.full(n, self._tnow, dtype=np.int64), *np.array(xyv, dtype=float)
        )
        rows = np.array([self._row_of.get(o, -1) for o in oids], dtype=np.intp)
        known = rows >= 0
        deleted_rows = np.concatenate((np.asarray(retired_rows, dtype=np.intp), rows[known]))
        deleted = self.columns(deleted_rows)
        supersedes = np.full(n, -1, dtype=np.intp)
        supersedes[known] = np.arange(len(retired_rows), deleted_rows.shape[0])
        first = np.flatnonzero(~known)
        if first.shape[0]:
            rows[first] = self._allocate(first.shape[0])
            self._row_of.update(zip(oid[first].tolist(), rows[first].tolist()))
            if self._live is not None:
                self._live = np.concatenate((self._live, rows[first]))
        self._write(rows, inserted)
        wave = Wave(self._tnow, deleted, deleted_rows, inserted, rows, supersedes)
        dispatch(self._listeners, "on_report_batch", wave)

    def _allocate(self, count: int) -> np.ndarray:
        """``count`` unused rows: freed ones first, then fresh ones (the
        columns double until they fit)."""
        reused = [self._free.pop() for _ in range(min(count, len(self._free)))]
        fresh = np.arange(self._used, self._used + count - len(reused), dtype=np.intp)
        self._used += fresh.shape[0]
        capacity = self._oid.shape[0]
        if self._used > capacity:
            while capacity < self._used:
                capacity *= 2
            pad = (0, capacity - self._oid.shape[0])
            self._oid = np.pad(self._oid, pad)
            self._t_ref = np.pad(self._t_ref, pad)
            self._xyv = np.pad(self._xyv, ((0, 0), pad))
        return np.concatenate((np.asarray(reused, dtype=np.intp), fresh))

    def _write(self, rows: np.ndarray, columns: Columns) -> None:
        self._oid[rows] = columns.oid
        self._t_ref[rows] = columns.t_ref
        self._xyv[:, rows] = (columns.x, columns.y, columns.vx, columns.vy)

    def restore(self, columns: Columns, tnow: int) -> None:
        """Restore a snapshot: set registry and clock WITHOUT notifications.

        Only :mod:`repro.storage.snapshot` should call this — listeners must
        be restored through their own state, not by replaying updates.
        """
        if self._row_of:
            raise QueryError("restore() requires an empty table")
        rows = self._allocate(len(columns))
        self._write(rows, columns)
        self._row_of = dict(zip(columns.oid.tolist(), rows.tolist()))
        self._live = rows
        self._tnow = tnow

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._row_of)

    def __contains__(self, oid: int) -> bool:
        return oid in self._row_of

    def rows(self) -> np.ndarray:
        """The rows of the live motions, in first-report order (a copy)."""
        return self._live_rows().copy()

    def _live_rows(self) -> np.ndarray:
        # Rebuilt after a retire, and whenever it no longer counts the
        # registry's rows (a registry edited behind the table's back).
        if self._live is None or self._live.shape[0] != len(self._row_of):
            self._live = np.fromiter(
                self._row_of.values(), dtype=np.intp, count=len(self._row_of)
            )
        return self._live

    def columns(self, rows: Optional[np.ndarray] = None) -> Columns:
        """The motions in ``rows`` (default: every live one) — a gather,
        hence a copy that later writes to the table do not reach."""
        if rows is None:
            rows = self._live_rows()
        return Columns(
            self._oid.take(rows), self._t_ref.take(rows), *self._xyv.take(rows, axis=1)
        )

    def motion_of(self, oid: int) -> Optional[Motion]:
        row = self._row_of.get(oid)
        if row is None:
            return None
        return Motion(oid, int(self._t_ref[row]), *self._xyv[:, row].tolist())

    def motions(self) -> Iterator[Motion]:
        return starmap(Motion, self.columns().tuples())

    def positions_at(self, t: float):
        """Yield ``(oid, x, y)`` for every live object at time ``t``."""
        cols = self.columns()
        xs, ys = cols.positions_at(t)
        return zip(cols.oid.tolist(), xs.tolist(), ys.tolist())
