"""Per-timestamp density histograms (Section 5.1 of the paper).

The domain is divided into an ``m x m`` grid and, for every timestamp ``t``
a query may ask, a counter grid records how many objects occupy each cell at
``t``: the live motions whose prediction window ``[t_ref, t_ref + H]`` covers
``t`` and that are inside the domain at ``t``.

Only the query window ``[t_now, t_now + W]`` is stored, as a ring buffer of
``W + 1`` slots.  A report retracts its previous motion and counts the new
one over the stored slots only.  When the clock advances, every slot
entering the window, ``(t_old + W, t_new + W]``, is *materialised*: built
from the table's live motions in one all-positive pass.  Every motion
reported before the entry is counted by it and every motion reported after
it is counted by its own report, so each stored slot is the per-cell count
of the live motions covering it — exactly what the paper's eager
``[t_ref, t_ref + H]`` projection leaves in it.  A query at
``qt in (t_now + W, t_now + H]`` is answered from a *transient* slot built
the same way into a scratch grid and never stored.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from ..core.errors import HorizonError, InvalidParameterError
from ..core.geometry import Rect
from ..motion.updates import (
    Columns, UpdateListener, Wave, entering_slots, ring_window, workspace,
)
from ..telemetry import TELEMETRY
from ..telemetry import instruments as tm

if TYPE_CHECKING:
    from ..motion.table import ObjectTable

__all__ = ["DensityHistogram"]


# Histograms already count their own cache hits/misses (per-query stats
# read them via before/after deltas).  The process-wide counters are
# synced from those local integers only when somebody scrapes — the warm
# cache path (a dict lookup) stays free of telemetry calls entirely.
# Weak references: retired histograms keep their already-synced totals in
# the global counters but stop being polled.
_cache_sync_marks: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _collect_cache_counters() -> None:
    for hist, (synced_hits, synced_misses) in list(_cache_sync_marks.items()):
        delta_hits = hist.cache_hits - synced_hits
        delta_misses = hist.cache_misses - synced_misses
        if delta_hits:
            tm.CACHE_HITS.inc(delta_hits)
        if delta_misses:
            tm.CACHE_MISSES.inc(delta_misses)
        if delta_hits or delta_misses:
            _cache_sync_marks[hist] = (hist.cache_hits, hist.cache_misses)
    hits = tm.CACHE_HITS.value
    total = hits + tm.CACHE_MISSES.value
    if total:
        tm.CACHE_HIT_RATIO.set(hits / total)


TELEMETRY.registry.on_collect(_collect_cache_counters)


class DensityHistogram(UpdateListener):
    """Ring-buffered ``(W+1) x m x m`` counter grids.

    ``prediction_window`` is W (default: the whole horizon, a structure with
    no update interval).  A ring shorter than the horizon answers the
    timestamps past it from ``table``'s current motions.
    """

    def __init__(
        self,
        domain: Rect,
        m: int,
        horizon: int,
        tnow: int = 0,
        prediction_window: Optional[int] = None,
        table: Optional["ObjectTable"] = None,
    ) -> None:
        if m < 1:
            raise InvalidParameterError(f"grid resolution must be >= 1, got {m}")
        if horizon < 0:
            raise InvalidParameterError(f"horizon must be >= 0, got {horizon}")
        if domain.is_empty():
            raise InvalidParameterError("domain must have positive area")
        window = ring_window(horizon, prediction_window, table)
        self.domain = domain
        self.m = m
        self.horizon = horizon
        self.prediction_window = window
        # Weak, as the TPR-tree's: the table owns its listeners.
        self._table = None if table is None else weakref.proxy(table)
        self._tnow = tnow
        self._slots = window + 1
        self._counts = np.zeros((self._slots, m, m), dtype=np.int32)
        # Slot index of absolute time t is t % slots; the invariant is that
        # _slot_time[t % slots] == t for every t in [tnow, tnow + W].
        self._slot_time = np.empty(self._slots, dtype=np.int64)
        self._label_slots(tnow)
        # A pass's cell geometry, as (2, 1, 1) blocks over both axes.
        self._origin = np.array([domain.x1, domain.y1])[:, None, None]
        self._edge = np.array([self.cell_edge, self.cell_edge_y])[:, None, None]
        # Update epoch: bumped on every counter mutation (scatter, advance,
        # snapshot restore).  The per-timestamp prefix/block-sum caches are
        # tagged with the epoch they were built at, so invalidation is a
        # single integer comparison — no eager clearing on the update path.
        self._epoch = 0
        self._cache_epoch = 0
        self._prefix_cache: Dict[int, Tuple[np.ndarray, int, np.ndarray]] = {}
        self._block_cache: Dict[Tuple[int, int], np.ndarray] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        _cache_sync_marks[self] = (0, 0)

    def _label_slots(self, tnow: int) -> None:
        ts = np.arange(tnow, tnow + self._slots, dtype=np.int64)
        self._slot_time[ts % self._slots] = ts

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    @property
    def cell_edge(self) -> float:
        """Cell edge length ``l_c = L / m`` (cells are square iff the domain is)."""
        return self.domain.width / self.m

    @property
    def cell_edge_y(self) -> float:
        return self.domain.height / self.m

    def cell_rect(self, i: int, j: int) -> Rect:
        """World rectangle of cell ``(i, j)`` (column i, row j), half-open."""
        lx = self.cell_edge
        ly = self.cell_edge_y
        x1 = self.domain.x1 + i * lx
        y1 = self.domain.y1 + j * ly
        return Rect(x1, y1, x1 + lx, y1 + ly)

    def cell_bounds(self, mask: np.ndarray) -> np.ndarray:
        """The cells set in ``mask[i, j]`` as ``(N, 4)`` ``x1, y1, x2, y2`` rows.

        The one place a cell mask becomes rectangles: rows come in
        ``np.nonzero`` order and in :meth:`cell_rect`'s exact floats, and
        distinct cells are disjoint (``RegionSet.from_bounds(...,
        disjoint=True)``).
        """
        i, j = np.nonzero(mask)
        lx = self.cell_edge
        ly = self.cell_edge_y
        x1 = self.domain.x1 + i * lx
        y1 = self.domain.y1 + j * ly
        return np.column_stack([x1, y1, x1 + lx, y1 + ly])

    def cell_of(self, x: float, y: float) -> Tuple[int, int]:
        """Cell indices containing ``(x, y)``; raises for out-of-domain points."""
        if not self.domain.contains_point(x, y):
            raise InvalidParameterError(f"point ({x}, {y}) outside histogram domain")
        i = int((x - self.domain.x1) / self.cell_edge)
        j = int((y - self.domain.y1) / self.cell_edge_y)
        return (min(i, self.m - 1), min(j, self.m - 1))

    # ------------------------------------------------------------------
    # time window
    # ------------------------------------------------------------------
    @property
    def tnow(self) -> int:
        return self._tnow

    @property
    def window(self) -> Tuple[int, int]:
        """The timestamps a query may ask, ``[t_now, t_now + H]``."""
        return (self._tnow, self._tnow + self.horizon)

    def memory_bytes(self) -> int:
        """Counter storage: the ``(W + 1) m^2`` stored 4-byte counters.  The
        paper sizes its histograms for all H timestamps, ``H m^2``; the
        ``H - W`` slots past the query window are built per query here."""
        return self._counts.size * 4

    def on_advance(self, tnow: int, motions: Columns) -> None:
        """Move the window to ``[tnow, tnow + W]``: the slots that leave it
        are reused for the ones that enter it, which are materialised from
        ``motions``, the table's live motions (all of them after a jump of
        ``W + 1`` ticks or more)."""
        if tnow < self._tnow:
            raise InvalidParameterError(f"clock moved backwards to {tnow}")
        if tnow == self._tnow:
            return
        entering = entering_slots(self._tnow, tnow, self._slots)
        slot = entering % self._slots
        self._counts[slot] = 0
        self._slot_time[slot] = entering
        self._materialise(motions, entering, self._counts, slot)
        self._tnow = tnow
        self._epoch += 1

    # ------------------------------------------------------------------
    # update stream
    # ------------------------------------------------------------------
    def on_report_batch(self, wave: Wave) -> None:
        """Retract ``wave.deleted`` and count ``wave.inserted`` over the
        stored window."""
        motions, retract = wave.jobs
        if len(motions) == 0:
            return
        sign = np.where(retract, np.int32(-1), np.int32(1))
        ts = np.arange(self._tnow, self._tnow + self._slots, dtype=np.int64)
        self._scatter(motions, sign, ts, self._counts, ts % self._slots)
        self._epoch += 1

    def _materialise(
        self, motions: Columns, ts: np.ndarray, ring: np.ndarray, slot: np.ndarray
    ) -> None:
        """Count every motion of ``motions`` at each timestamp of ``ts`` it
        covers into ``ring[slot]`` — a stored slot entering the window, or a
        transient one."""
        self._scatter(motions, np.ones(len(motions), dtype=np.int32), ts, ring, slot)

    def _scatter(
        self,
        motions: Columns,
        sign: np.ndarray,
        ts: np.ndarray,
        ring: np.ndarray,
        slot: np.ndarray,
    ) -> None:
        """Add ``sign[i]`` to the cell motion ``i`` occupies at ``ts[j]`` in
        the ``(slots, m, m)`` C-contiguous ``ring``'s slot ``slot[j]``, for
        every timestamp its prediction window covers, one
        :meth:`Columns.passes` run at a time, every pass's grids in a frame
        of this thread's :func:`~repro.motion.updates.workspace`.

        Counter increments are integers, so the accumulation is exactly the
        per-motion result in any order and however the motions are cut; the
        cut bounds a pass's trajectory grid by
        :data:`~repro.motion.updates.PASS_JOB_SLOTS`, not by the wave.
        """
        flat = ring.reshape(-1)
        m = self.m
        work = workspace()
        for rows, part in motions.passes(ts.shape[0]):
            with work.frame():
                shape = (len(part), ts.shape[0])
                pos = work((2,) + shape)
                index = work((3,) + shape, np.int64)  # x and y cell, flat cell
                test = work((6,) + shape, bool)
                part.trajectory(ts, out=(pos[0], pos[1]))
                # floor((pos - origin) / edge) as int64, both axes at once
                np.subtract(pos, self._origin, out=pos)
                np.floor(np.divide(pos, self._edge, out=pos), out=pos)
                np.copyto(index[:2], pos, casting="unsafe")
                part.covering(ts, self.horizon, out=test[0])
                np.greater_equal(index[:2], 0, out=test[1:3])
                np.less(index[:2], m, out=test[3:5])
                hit = np.logical_and.reduce(test[:5], axis=0, out=test[5])
                # One flat index into the C-contiguous ring and int32 values:
                # numpy's typed 1-D ufunc.at loop.  A tuple index or a
                # Python-int value takes its casting path instead, an order
                # of magnitude slower.  A miss adds 0 to cell 0 (exact for
                # integers), so the pass compacts nothing and allocates no
                # index.
                cell = np.multiply(index[0], m, out=index[2])
                cell += index[1]
                cell += np.multiply(slot, m * m, out=index[0, 0])[None, :]
                cell *= hit
                values = np.multiply(hit, sign[rows, None], out=work(shape, np.int32))
                np.add.at(flat, cell.reshape(-1), values.reshape(-1))

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def counts_at(self, qt: int) -> np.ndarray:
        """The ``m x m`` counter grid for timestamp ``qt`` (do not mutate):
        a view of its stored slot, or a transient grid past the window."""
        if not (self._tnow <= qt <= self._tnow + self.horizon):
            raise HorizonError(
                f"timestamp {qt} outside maintained window {self.window}"
            )
        if qt > self._tnow + self.prediction_window:
            ring = np.zeros((1, self.m, self.m), dtype=np.int32)
            self._materialise(
                self._table.columns(), np.array([qt]), ring, np.zeros(1, dtype=np.int64)
            )
            return ring[0]
        slot = qt % self._slots
        if self._slot_time[slot] != qt:  # pragma: no cover - internal invariant
            raise HorizonError(f"ring-buffer slot for {qt} not materialised")
        return self._counts[slot]

    def total_at(self, qt: int) -> int:
        """Number of (in-domain, in-window) object contributions at ``qt``."""
        return int(self.counts_at(qt).sum())

    def _cache_ready(self) -> None:
        """Lazily drop cache entries from a previous update epoch (O(1) on
        the update path: mutations only bump the epoch counter)."""
        if self._cache_epoch != self._epoch:
            self._prefix_cache.clear()
            self._block_cache.clear()
            self._cache_epoch = self._epoch

    def _padded_prefix(self, qt: int, radius: int) -> Tuple[np.ndarray, int, np.ndarray]:
        """``(padded, pad, prefix)``: the prefix sums of ``qt`` edge-padded
        by at least ``radius``, and the unpadded view of them.

        ``padded[k, l] = P[clip(k - pad), clip(l - pad)]`` for the zero-border
        prefix ``P`` of :meth:`prefix_sums` (``prefix``) and a pad of
        ``radius`` or more (never more than ``m``: a block that wide already
        spans the grid).
        int32 suffices: every object adds at most one to a slot, so no sum
        exceeds the object count.  Memoized per ``qt`` until the next
        counter mutation (the caller runs :meth:`_cache_ready`); a wider
        radius than the cached pad rebuilds it.
        """
        m = self.m
        cached = self._prefix_cache.get(qt)
        if cached is not None and (cached[1] >= radius or cached[1] == m):
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        pad = min(radius, m)
        padded = np.empty((m + 1 + 2 * pad,) * 2, dtype=np.int32)
        # Rows and columns 0..pad repeat P's zero border; the interior is
        # the cumulative sums; the rows and columns past it repeat P's last.
        padded[: pad + 1] = 0
        padded[:, : pad + 1] = 0
        interior = padded[pad + 1 : pad + 1 + m, pad + 1 : pad + 1 + m]
        np.cumsum(self.counts_at(qt), axis=0, dtype=np.int32, out=interior)
        np.cumsum(interior, axis=1, dtype=np.int32, out=interior)
        padded[pad + 1 + m :] = padded[pad + m]
        padded[:, pad + 1 + m :] = padded[:, pad + m : pad + m + 1]
        entry = padded, pad, padded[pad : pad + 1 + m, pad : pad + 1 + m]
        self._prefix_cache[qt] = entry
        return entry

    def prefix_sums(self, qt: int) -> np.ndarray:
        """2-D inclusive prefix sums ``P`` with a zero border.

        ``P[i+1, j+1] - P[i0, j+1] - P[i+1, j0] + P[i0, j0]`` is the count of
        the cell block ``[i0..i] x [j0..j]``.

        A view into the memoized edge-padded prefix of ``qt`` (shared
        cached state — treat it as read-only).
        """
        self._cache_ready()
        cached = self._prefix_cache.get(qt)
        if cached is not None:
            self.cache_hits += 1
            return cached[2]
        return self._padded_prefix(qt, 0)[2]

    def block_sums_at(self, qt: int, radius: int) -> np.ndarray:
        """Memoized :meth:`block_sums` of ``qt``, read from one edge-padded
        prefix per ``qt`` whatever the radius.

        This is the cache the FR filter, the DH answers, interval
        classification and the monitor's re-evaluations share: the same
        ``(qt, radius)`` pair between two updates costs one dict lookup.
        Ask for the widest radius first: the prefix is padded for it, and
        narrower ones read the same array.  The returned array is shared
        cached state — treat it as read-only.
        """
        self._cache_ready()
        key = (qt, radius)
        cached = self._block_cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        if radius < 0:
            raise InvalidParameterError(f"radius must be >= 0, got {radius}")
        padded, pad, _prefix = self._padded_prefix(qt, radius)
        self.cache_misses += 1
        block = self._padded_block_sums(padded, pad, radius)
        self._block_cache[key] = block
        return block

    def shed_caches(self) -> None:
        """Drop the prefix/block-sum caches now, so the next filter runs
        cold (Figure 9(a) times it that way).  The caches rebuild on
        demand from the counters; no answer changes.
        """
        self._prefix_cache.clear()
        self._block_cache.clear()

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def state_arrays(self) -> dict:
        """Raw state, the ring as a dense copy (what :meth:`load_state_arrays`
        takes; snapshots persist :meth:`sparse_state`)."""
        return {
            "counts": self._counts.copy(),
            "slot_time": self._slot_time.copy(),
            "tnow": np.int64(self._tnow),
        }

    def sparse_state(self) -> dict:
        """:meth:`state_arrays` with the ring as its nonzero counters, the
        form snapshots persist (most cells of most slots are empty):
        ``cells`` the ascending int64 flat indices into the slot-major
        ``(slots, m, m)`` ring, ``counts`` their int32 values.  No dense
        copy of the ring is made."""
        flat = self._counts.reshape(-1)
        cells = np.flatnonzero(flat)
        return {
            "cells": cells,
            "counts": flat[cells],
            "slot_time": self._slot_time.copy(),
            "tnow": np.int64(self._tnow),
        }

    def load_state_arrays(self, state: dict) -> None:
        """Restore state produced by :meth:`state_arrays` (shapes must match)."""
        # C order: the scatter adds into ``reshape(-1)``, which is a copy —
        # and every wave would be lost — on any other layout.
        counts = np.ascontiguousarray(state["counts"], dtype=np.int32)
        slot_time = np.asarray(state["slot_time"], dtype=np.int64)
        if counts.shape != self._counts.shape:
            raise InvalidParameterError(
                f"snapshot shape {counts.shape} does not match histogram "
                f"{self._counts.shape}"
            )
        self._counts = counts
        self._slot_time = slot_time
        self._tnow = int(state["tnow"])
        self._epoch += 1

    @staticmethod
    def block_sums(prefix: np.ndarray, radius: int) -> np.ndarray:
        """Count in the ``(2*radius+1)^2`` block around every cell (clipped).

        ``radius`` may be 0 (the cell itself).  Returns an ``m x m`` array.
        """
        if radius < 0:
            raise InvalidParameterError(f"radius must be >= 0, got {radius}")
        pad = min(radius, prefix.shape[0] - 1)
        return DensityHistogram._padded_block_sums(np.pad(prefix, pad, mode="edge"), pad, radius)

    @staticmethod
    def _padded_block_sums(padded: np.ndarray, pad: int, radius: int) -> np.ndarray:
        """:meth:`block_sums` from the prefix edge-padded by ``pad``, which
        is at least ``min(radius, m)``."""
        m = padded.shape[0] - 1 - 2 * pad
        # Clamping an index to [0, m] is edge replication: in the padded
        # array, prefix[clip(i - radius)] and prefix[clip(i + radius + 1)]
        # for i = 0..m-1 are two slices.  Past m a radius clamps as m does.
        radius = min(radius, m)
        lo = slice(pad - radius, pad - radius + m)
        hi = slice(pad + radius + 1, pad + radius + 1 + m)
        return padded[hi, hi] - padded[lo, hi] - padded[hi, lo] + padded[lo, lo]
