"""The B^x-tree: B+-tree indexing of moving objects (Jensen et al., VLDB 2004).

The paper's Section 2 notes that any index for linearly moving objects can
serve the refinement step; the B^x-tree is the main alternative to the
TPR-tree it cites.  The idea: partition time into phases of duration
``delta``; an object inserted at time ``t`` is assigned the *label
timestamp* ``tl = (floor(t / delta) + 1) * delta`` and stored in a plain
B+-tree under the key ``partition(tl) . zcode(position-at-tl)``.

A range query ``(R, tq)`` visits every live partition: the object's stored
position is its position at ``tl``, so it lies within ``R`` enlarged by
``v_max * |tq - tl|`` where ``v_max`` bounds object speed.  The enlarged
rectangle is decomposed into Z-curve runs, each run is a B+-tree range scan
(paying buffer I/O), and candidates are filtered exactly against their
actual motion.

This implementation mirrors the update/query interface of
:class:`~repro.index.tree.TPRTree` — including the two members
:class:`~repro.methods.fr.FRMethod` needs of an index,
``range_positions_batch`` and ``buffer`` — so FR accepts either
index; that is the basis of the index ablation benchmark.
"""

from __future__ import annotations

import math
import weakref
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..core.errors import IndexError_, InvalidParameterError
from ..core.geometry import Rect
from ..motion.table import ObjectTable
from ..motion.updates import Columns, UpdateListener, Wave
from ..storage.buffer import BufferPool
from ..storage import pages
from .bplus import BPlusTree
from .positions import deal_positions, query_windows
from .zorder import ZGrid

__all__ = ["BxTree"]


class BxTree(UpdateListener):
    """A B^x-tree over a :class:`~repro.index.bplus.BPlusTree` backbone."""

    def __init__(
        self,
        table: ObjectTable,
        domain: Rect,
        horizon: float,
        phase_length: Optional[int] = None,
        bits: int = 8,
        max_speed_hint: float = 0.0,
        buffer_pool: Optional[BufferPool] = None,
    ) -> None:
        if horizon <= 0:
            raise InvalidParameterError(f"horizon must be positive, got {horizon}")
        # Weak: the table owns its listeners, so a strong back-pointer would
        # tie every maintained structure into a cycle only the GC can free.
        self.table = weakref.proxy(table)
        self.domain = domain
        self.horizon = horizon
        # The B^x-tree typically uses delta = U / n with small n; half the
        # horizon's update component is a reasonable default.
        self.phase_length = phase_length if phase_length is not None else max(
            1, int(horizon) // 4
        )
        if self.phase_length < 1:
            raise InvalidParameterError("phase_length must be >= 1")
        self.grid = ZGrid(domain, bits=bits)
        self._tnow = float(table.tnow)
        self._max_speed = float(max_speed_hint)
        self._btree = BPlusTree(fanout=pages.LEAF_FANOUT, buffer_pool=buffer_pool)
        self._key_of: Dict[int, int] = {}  # table row -> stored key
        self._partition_count: Dict[int, int] = {}  # partition -> live entries
        # Per-partition speed bound for query enlargement (the original
        # B^x-tree maintains per-partition velocity histograms; a scalar
        # max is the simplest sound variant).  Never decreased on delete.
        self._partition_speed: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # UpdateListener protocol
    # ------------------------------------------------------------------
    def on_report_batch(self, wave: Wave) -> None:
        """Delete the wave's retracted rows, then insert its new ones.  All
        deletions come first: a row's key is remembered in ``_key_of``, so
        deleting never reads the table, where the wave's rows already hold
        the new motions."""
        self._tnow = max(self._tnow, float(wave.tnow))
        for row in wave.deleted_rows.tolist():
            self._delete(row)
        self._insert_rows(wave.rows)

    def bulk_load(self) -> None:
        """Rebuild the index from the table's live rows — how a tree joins a
        table that already holds motions (cf. :meth:`TPRTree.bulk_load`)."""
        self._btree = BPlusTree(fanout=self._btree.fanout, buffer_pool=self._btree.buffer)
        self._key_of.clear()
        self._partition_count.clear()
        self._partition_speed.clear()
        self._insert_rows(self.table.rows())

    def _insert_rows(self, rows: np.ndarray) -> None:
        for row, (_, *motion) in zip(rows.tolist(), self.table.columns(rows).tuples()):
            self._insert(row, *motion)

    def on_advance(self, tnow: int, motions: Columns) -> None:
        self._tnow = max(self._tnow, float(tnow))

    # ------------------------------------------------------------------
    # key construction
    # ------------------------------------------------------------------
    def label_timestamp(self, t: float) -> int:
        """The phase-boundary label for a motion registered at ``t``."""
        return (int(math.floor(t / self.phase_length)) + 1) * self.phase_length

    def _partition(self, tl: int) -> int:
        return tl // self.phase_length

    def _key(self, t_ref: int, x: float, y: float, vx: float, vy: float) -> int:
        tl = self.label_timestamp(t_ref)
        dt = tl - t_ref
        return self._partition(tl) * self.grid.code_count + self.grid.code_of(
            x + dt * vx, y + dt * vy
        )

    # ------------------------------------------------------------------
    # public API (mirrors TPRTree)
    # ------------------------------------------------------------------
    @property
    def buffer(self) -> Optional[BufferPool]:
        return self._btree.buffer

    def __len__(self) -> int:
        return len(self._key_of)

    @property
    def max_speed(self) -> float:
        return self._max_speed

    def _insert(self, row: int, t_ref: int, x: float, y: float, vx: float, vy: float) -> None:
        if row in self._key_of:
            raise IndexError_(
                f"table row {row} already indexed; delete its old motion first"
            )
        key = self._key(t_ref, x, y, vx, vy)
        self._btree.insert(key, row)
        self._key_of[row] = key
        partition = key // self.grid.code_count
        self._partition_count[partition] = self._partition_count.get(partition, 0) + 1
        speed = math.hypot(vx, vy)
        self._max_speed = max(self._max_speed, speed)
        if speed > self._partition_speed.get(partition, 0.0):
            self._partition_speed[partition] = speed

    def _delete(self, row: int) -> None:
        key = self._key_of.pop(row, None)
        if key is None:
            raise IndexError_(f"table row {row} is not indexed")
        self._btree.delete(key, match=lambda stored: stored == row)
        partition = key // self.grid.code_count
        remaining = self._partition_count[partition] - 1
        if remaining:
            self._partition_count[partition] = remaining
        else:
            del self._partition_count[partition]

    def _candidates(self, queries: Iterable[Tuple[Rect, float]], charge_io: bool) -> Columns:
        """The motions that may lie in some ``rect`` at its ``qt``, each
        once, in scan order.

        Every query visits every live partition with its speed-enlarged
        window, one B+-tree range scan per Z-curve run.
        """
        rows: Dict[int, None] = {}  # insertion-ordered set
        for rect, qt in queries:
            if qt < self._tnow:
                raise IndexError_(
                    f"B^x-tree queries are only valid for t >= {self._tnow}, got {qt}"
                )
            for partition in list(self._partition_count):
                tl = partition * self.phase_length
                speed_bound = self._partition_speed.get(partition, self._max_speed)
                margin = speed_bound * abs(qt - tl)
                enlarged = rect.expanded(margin)
                base = partition * self.grid.code_count
                for lo, hi in self.grid.rect_runs(enlarged):
                    for _key, row in self._btree.range_scan(
                        base + lo, base + hi, charge_io=charge_io
                    ):
                        rows[row] = None
        return self.table.columns(np.fromiter(rows, dtype=np.intp, count=len(rows)))

    def range_query(self, rect: Rect, qt: float, charge_io: bool = True) -> List[int]:
        """Ids of the objects whose predicted position at ``qt`` lies in
        ``rect`` (closed) — the answer of :meth:`TPRTree.range_query` on the
        same contents, in scan order.  The candidates are filtered exactly
        against the table."""
        motions = self._candidates([(rect, qt)], charge_io)
        x, y = motions.positions_at(qt)
        inside = (rect.x1 <= x) & (x <= rect.x2) & (rect.y1 <= y) & (y <= rect.y2)
        return motions.oid[inside].tolist()

    def range_positions_batch(
        self, rects, qts, charge_io: bool = True
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`range_query` returning positions as CSR columns.

        ``rects`` is an ``(R, 4)`` array of closed windows and ``qts`` a
        scalar timestamp or one timestamp per rect — the same contract as
        :meth:`TPRTree.range_positions_batch`, without the shared traversal
        (Z-curve runs of different rects rarely coincide): every rect scans
        its own partitions and pays its own I/O.  The union of their
        candidate rows is dealt to the windows by
        :func:`~repro.index.positions.deal_positions`, which is exact over
        any superset of a rect's candidates.
        """
        rb, qts_arr = query_windows(rects, qts)
        motions = self._candidates(
            ((Rect(*window), float(qt)) for window, qt in zip(rb, qts_arr)), charge_io
        )
        return deal_positions(motions, rb, qts_arr, self.horizon)

    def validate(self) -> None:
        """Invariants: backbone structure, key map and partition counters."""
        self._btree.validate()
        if len(self._btree) != len(self._key_of):
            raise IndexError_("B+-tree size disagrees with the key map")
        counts: Dict[int, int] = {}
        for row, key in self._key_of.items():
            if row not in self._btree.search(key):
                raise IndexError_(f"table row {row} missing under its mapped key")
            partition = key // self.grid.code_count
            counts[partition] = counts.get(partition, 0) + 1
        if counts != self._partition_count:
            raise IndexError_("partition counters out of sync")
