"""PA — the polynomial-approximation PDR method (Section 6).

For every timestamp of the query window ``[t_now, t_now + W]`` the method
keeps a ``g x g`` grid of total-degree-``k`` Chebyshev expansions of the
point-density surface.  Each object insertion (deletion) adds (subtracts)
the closed-form delta coefficients of the object's indicator square at
every covered timestamp of that window — Algorithm 4/5 — vectorised here
over the whole trajectory in one numpy pass.  The ring and its entry
materialisation mirror :class:`~repro.histogram.density_histogram.
DensityHistogram`: a slot entering the window on an advance is built from
the table's live motions, and a query past it, up to ``t_now + H``, from a
transient surface built the same way.  Queries bound each tile's expansion
once and evaluate the undecided tiles on the leaf grid (Section 6.3); they
never touch the objects themselves, which is why PA's query cost is
independent of the dataset size.

Unlike FR, PA fixes the neighborhood edge ``l`` at construction time (the
delta squares are baked into the coefficients); querying with a different
``l`` raises.
"""

from __future__ import annotations

import time
import weakref
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from ..chebyshev.delta import retained_offsets, separable_deltas, strip_integrals
from ..chebyshev.grid import ChebSurface, GridSpec
from ..core.errors import HorizonError, InvalidParameterError
from ..core.geometry import Rect
from ..core.query import QueryResult, QueryStats, SnapshotPDRQuery
from ..motion.updates import (
    Columns, UpdateListener, Wave, Workspace, entering_slots, ring_window, workspace,
)
from ..telemetry import TELEMETRY

if TYPE_CHECKING:
    from ..motion.table import ObjectTable

__all__ = ["PAMethod"]


def _owners(starts: np.ndarray, total: int, work: Workspace) -> np.ndarray:
    """Each item's run, for runs of ``total`` items in all whose first items
    are ``starts`` (nondecreasing, from 0): ``total`` entries from ``work``.

    Every run marks its start with its index and a running maximum carries
    the marks forward.  Empty runs start where the next one does, so the
    largest index at a position, the run that owns it, wins the mark."""
    owner = work(total + 1, np.int64)
    owner.fill(0)
    np.maximum.at(owner, starts, work.arange(starts.shape[0]))
    return np.maximum.accumulate(owner[:total], out=owner[:total])


class PAMethod(UpdateListener):
    """On-line Chebyshev density maintenance plus bound-then-evaluate queries."""

    def __init__(
        self,
        domain: Rect,
        l: float,
        horizon: int,
        g: int = 20,
        k: int = 5,
        md: int = 512,
        tnow: int = 0,
        faults=None,
        prediction_window: Optional[int] = None,
        table: Optional["ObjectTable"] = None,
    ) -> None:
        if l <= 0:
            raise InvalidParameterError(f"l must be positive, got {l}")
        if horizon < 0:
            raise InvalidParameterError(f"horizon must be >= 0, got {horizon}")
        window = ring_window(horizon, prediction_window, table)
        self.faults = faults
        self.spec = GridSpec(domain, g, k)
        self.l = l
        self.horizon = horizon
        self.prediction_window = window
        # Weak, as the TPR-tree's: the table owns its listeners.
        self._table = None if table is None else weakref.proxy(table)
        self.md = md
        self._tnow = tnow
        self._slots = window + 1
        # Time-minor: one tile's slots are adjacent (k+1)^2 blocks, so a
        # job's consecutive timestamps in one tile scatter into neighbouring
        # memory.  Persisted in this order, retained coefficients only
        # (state_arrays).
        self._coeffs = np.zeros((g, g, self._slots, k + 1, k + 1))
        self._slot_time = np.zeros(self._slots, dtype=np.int64)
        for t in range(tnow, tnow + self._slots):
            self._slot_time[t % self._slots] = t
        # A pass's constants, as the (2, ...) blocks it runs both axes in.
        dom = self.spec.domain
        self._half = l / 2.0
        self._domain_lo = np.array([dom.x1, dom.y1])[:, None, None]
        self._domain_hi = np.array([dom.x2, dom.y2])[:, None, None]
        self._tile_origin = np.array([dom.x1, dom.y1])[:, None]
        self._tile_width = np.array([self.spec.cell_width, self.spec.cell_height])[:, None]
        self._retained = retained_offsets(k)[:, None]

    # ------------------------------------------------------------------
    # time window (mirrors DensityHistogram's ring buffer)
    # ------------------------------------------------------------------
    @property
    def tnow(self) -> int:
        return self._tnow

    @property
    def window(self) -> Tuple[int, int]:
        """The timestamps a query may ask, ``[t_now, t_now + H]``."""
        return (self._tnow, self._tnow + self.horizon)

    def memory_bytes(self) -> int:
        """The stored ring, ``(W + 1) g^2 (k+1)(k+2)/2`` 8-byte coefficients.

        The paper's figure is ``H g^2 (k+1)(k+2)/2``: it keeps every
        timestamp of the horizon.  Here only the query window's ``W + 1``
        slots are stored; a query past it builds its surface per query."""
        return self.spec.coefficients_memory_bytes(self.prediction_window)

    def on_advance(self, tnow: int, motions: Columns) -> None:
        """Move the window to ``[tnow, tnow + W]`` and materialise the slots
        entering it from ``motions``, the table's live motions (as
        :meth:`DensityHistogram.on_advance
        <repro.histogram.density_histogram.DensityHistogram.on_advance>`)."""
        if tnow < self._tnow:
            raise InvalidParameterError(f"clock moved backwards to {tnow}")
        if tnow == self._tnow:
            return
        entering = entering_slots(self._tnow, tnow, self._slots)
        slot = entering % self._slots
        self._coeffs[:, :, slot] = 0.0
        self._slot_time[slot] = entering
        self._materialise(motions, entering, self._coeffs, slot)
        self._tnow = tnow

    # ------------------------------------------------------------------
    # update stream (Algorithms 4 and 5)
    # ------------------------------------------------------------------
    def on_report_batch(self, wave: Wave) -> None:
        # Coefficient accumulation is float addition, which is not
        # associative: however a tick's reports are cut into waves, the jobs
        # must run delete_i, insert_i, delete_{i+1}, ... in report order for
        # the coefficients to come out bit-identical -- the order of
        # Wave.jobs.
        jobs, retract = wave.jobs
        ts = np.arange(self._tnow, self._tnow + self._slots, dtype=np.int64)
        self._apply_batch(
            jobs, np.where(retract, -1.0, 1.0), ts, self._coeffs, ts % self._slots
        )

    def _materialise(
        self, motions: Columns, ts: np.ndarray, ring: np.ndarray, slot: np.ndarray
    ) -> None:
        """Add every motion of ``motions``, in order, at each timestamp of
        ``ts`` it covers into ``ring[:, :, slot]`` — a stored slot entering
        the window, or a transient one.  In the table's ``columns()`` order,
        which snapshots preserve, the floats come out the same on a live
        server, a recovered one and a replica."""
        self._apply_batch(motions, np.ones(len(motions)), ts, ring, slot)

    # Rectangles per delta/scatter flush: small enough that the chunk's
    # coefficient rows and the tiles they scatter into stay cache-resident
    # across the coefficient-major passes (and that a flush's ~0.9 MB of
    # fresh arrays is reused from the heap, not faulted in), large enough
    # that the per-call numpy overhead amortises away.
    _BATCH_RECTS = 2048

    def _apply_batch(
        self,
        jobs: Columns,
        sign: np.ndarray,
        ts: np.ndarray,
        ring: np.ndarray,
        slot: np.ndarray,
    ) -> None:
        """Add (``sign`` +1) or subtract (-1) the motions of ``jobs``, in
        order, at the timestamps ``ts`` into the ``(g, g, slots, k+1, k+1)``
        C-contiguous ``ring``'s slots ``slot``, one :meth:`Columns.passes`
        run at a time (Algorithms 4/5), every pass in a frame of this
        thread's :func:`~repro.motion.updates.workspace`.

        Bit-identity: within one job every rectangle hits a distinct
        ``(slot, tile)`` coefficient block (distinct timestamps map to
        distinct slots, distinct tiles to distinct blocks), so the only
        accumulation order that matters per coefficient is *across* jobs.
        The passes take the jobs in order, each pass emits its rectangles
        job-major, and every flush adds a coefficient's deltas in rectangle
        order — so each coefficient receives its deltas in job order, and
        the result is bit-identical to applying the jobs one at a time,
        however the wave is cut into passes and flushes.  The cut bounds a
        pass's transient (trajectory grids, rectangle columns) by
        :data:`~repro.motion.updates.PASS_JOB_SLOTS`, not by the wave.

        Measured and rejected (CH2K, 2 cores, numpy 2.4): this pass in a
        worker thread beside DH and TPR (no overlap under the GIL, 2 510 vs
        2 650 reports/s); a rank-layered exact scatter (2.6x slower than
        ``np.add.at`` at ~5.7 ns/element); slot-major emission order (no
        gain); a 2-D transposed ``np.add.at`` index (off the 1-D fast path,
        12.8 -> 28.3 ms/wave).
        """
        work = workspace()
        for rows, part in jobs.passes(ts.shape[0]):
            with work.frame():
                self._apply_pass(part, sign[rows], ts, ring, slot, work)

    def _apply_pass(
        self,
        jobs: Columns,
        sign: np.ndarray,
        ts: np.ndarray,
        ring: np.ndarray,
        slot: np.ndarray,
        work: Workspace,
    ) -> None:
        """One pass of :meth:`_apply_batch`: numpy over every (job, covered
        timestamp, tile) of ``jobs``.

        Lemma 4's delta is separable, so the 1-D integrals are taken once
        per (job, timestamp, tile column) and once per (job, timestamp,
        tile row) strip; an overlap rectangle is a pair of strip indices.
        Rectangles come out job-major.  A pass's fixed cost is its count of
        numpy calls, so related columns are rows of one block — one
        workspace request per block, one ``take`` per gather — and both axes
        run every step at once.  Every array of the pass's size is taken
        from ``work`` (in the caller's frame); only the squares' index, the
        mask of empty strips and each flush's arrays (bounded by
        :attr:`_BATCH_RECTS`) are fresh.
        Each stage is a method of its own, so that arrays a stage took
        fresh (a pass larger than the workspace) die with it.

        Every gather's index is built from the sizes of the array it
        indexes, so it is in range by construction; ``mode="clip"`` only
        keeps numpy from copying ``out`` into a fresh buffer, as it does
        under the default ``mode="raise"`` (it would clamp an index out of
        range rather than raise, which the byte-identity tests would show).
        """
        squares = self._squares(jobs, ts, work)
        if squares is None:
            return
        bounds, ints = squares
        n = ints.shape[1]
        # Per square: its height, and its slot's offset in the ring.
        height = sign.take(ints[8], out=work(n), mode="clip")
        height /= self.l * self.l
        integrals, block = self._strips(bounds, ints, ring.shape[2], work)
        slot.take(ints[9], out=ints[4], mode="clip")
        ints[4] *= (self.spec.k + 1) ** 2

        # One rectangle per (square, tile column, tile row): a pair of
        # strip indices.
        span, rect_first = ints[:2], ints[5]
        count = np.multiply(span[0], span[1], out=ints[6])
        rect_first[0] = 0
        np.add.accumulate(count[:-1], out=rect_first[1:])
        rects = int(rect_first[-1] + count[-1])
        of = _owners(rect_first, rects, work)
        heights = height.take(of, out=work(rects), mode="clip")
        # rows: the square's y strips, its first x and y strip, its slot's
        # offset, its first rectangle; then scratch
        rect = work((6, rects), np.int64)
        ints[1:6].take(of, axis=1, out=rect[:5], mode="clip")
        rows, xy, base, offset = rect[0], rect[1:3], rect[3], rect[4]
        np.subtract(work.arange(rects), offset, out=offset)
        di = np.floor_divide(offset, rows, out=of)
        # offset - di * rows: the strip's row inside its square.
        offset -= np.multiply(di, rows, out=rows)
        xy[0] += di
        xy[1] += offset
        # ((tile_x * g + tile_y) * slots + slot) * kk^2, an exact int sum
        block.take(xy, out=rect[4:6], mode="clip")
        base += rect[4]
        base += rect[5]

        # Scatter through a flat 1-D view (np.add.at on linear indices is
        # several times faster than the equivalent N-D fancy index), one
        # contiguous row of rectangles per retained coefficient.
        flat = ring.reshape(-1)
        step = self._BATCH_RECTS
        for chunk in (
            (slice(None),) if rects <= step
            else [slice(start, start + step) for start in range(0, rects, step)]
        ):
            # take, not integrals[:, xy]: a fancy index along the second
            # axis made a CH2K pass ~15 % slower.
            ax_ay = integrals.take(xy[:, chunk], axis=1)
            deltas = separable_deltas(ax_ay[:, 0], ax_ay[:, 1], heights[chunk])
            np.add.at(flat, (base[chunk] + self._retained).reshape(-1), deltas.reshape(-1))

    def _squares(
        self, jobs: Columns, ts: np.ndarray, work: Workspace
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The influence squares of ``jobs`` at every timestamp of ``ts``
        they cover, clipped to the domain, job-major: ``(bounds, ints)``
        from ``work``, or None when there is none.  ``bounds`` is the
        ``(2, 2, n)`` block of the squares' low and high x and y; ``ints``
        has ten rows of ``n``: 0-1 strips per axis, 2-3 each axis's first
        strip, 4-7 the tiles of the low and high bounds (filled by
        :meth:`_strips`; 4 and 5 then become the slot's offset in the ring
        and the first rectangle), 8 the job, 9 the timestamp's index."""
        nj, nt = len(jobs), ts.shape[0]
        size = nj * nt
        floats, ints = work(4 * size), work(10 * size, np.int64)
        with work.frame():
            grid = work((6, nj, nt))  # x, y, then the square's x1, y1, x2, y2
            test = work((8, nj, nt), bool)
            xy, lo, hi = grid[:2], grid[2:4], grid[4:]
            jobs.trajectory(ts, out=(grid[0], grid[1]))
            np.maximum(np.subtract(xy, self._half, out=lo), self._domain_lo, out=lo)
            np.minimum(np.add(xy, self._half, out=hi), self._domain_hi, out=hi)
            # Timestamps where the object itself has left the domain
            # contribute nothing: density is defined over the objects inside
            # the L x L region (shared convention with histogram and brute
            # force).
            jobs.covering(ts, self.horizon, out=test[0])
            np.greater(hi, lo, out=test[1:3])
            np.less_equal(self._domain_lo, xy, out=test[3:5])
            np.less(xy, self._domain_hi, out=test[5:7])
            keep = np.logical_and.reduce(test[:7], axis=0, out=test[7])
            # The row-major mask's flat indices keep the squares (and
            # everything expanded from them) job-major with no sort.  (The
            # pass's one fresh index array.)
            square = keep.reshape(-1).nonzero()[0]
            n = square.shape[0]
            if not n:
                return None
            bounds = floats[: 4 * n].reshape(2, 2, n)
            grid[2:].reshape(4, size).take(
                square, axis=1, out=bounds.reshape(4, n), mode="clip"
            )
        ints = ints[: 10 * n].reshape(10, n)
        np.divmod(square, nt, out=(ints[8], ints[9]))
        return bounds, ints

    def _strips(
        self, bounds: np.ndarray, ints: np.ndarray, slots: int, work: Workspace
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The tile strips each square of :meth:`_squares` crosses on each
        axis, x strips then y strips: their normalised weighted integrals,
        shape ``(k+1, strips)``, and the offset in a ring of ``slots`` slots
        of their tile column (x) or row (y), from ``work``.  Fills rows 0-7
        of ``ints``.  Elementwise these are the floats of one axis at a
        time."""
        n = ints.shape[1]
        tiles = ints[4:8].reshape(2, 2, n)
        with work.frame():
            scaled = np.subtract(bounds, self._tile_origin, out=work((2, 2, n)))
            scaled /= self._tile_width
            scaled[1] -= 1e-12
            tiles[...] = scaled  # astype(np.int64): truncation
        # np.minimum(np.maximum()) is np.clip without its per-call overhead.
        np.minimum(np.maximum(tiles, 0, out=tiles), self.spec.g - 1, out=tiles)
        span = np.subtract(tiles[1], tiles[0], out=ints[:2])
        span += 1
        first = ints[2:4].reshape(-1)  # each interval's first strip, x then y
        first[0] = 0
        np.add.accumulate(span.reshape(-1)[:-1], out=first[1:])
        strips = int(first[-1] + span[1, -1])
        integrals = work((self.spec.k + 1, strips))
        block = work(strips, np.int64)
        with work.frame():
            z = work((2, strips))
            with work.frame():
                self._overlaps(bounds, ints, slots, z, block, work)
            strip_integrals(self.spec.k, z, work, out=integrals)
        return integrals, block

    def _overlaps(
        self,
        bounds: np.ndarray,
        ints: np.ndarray,
        slots: int,
        z: np.ndarray,
        block: np.ndarray,
        work: Workspace,
    ) -> None:
        """Every strip's overlap with its tile in the tile frame ``[-1,
        1]``, into ``z`` (low and high bound), and its tile's offset in the
        ring, into ``block``."""
        n, strips = ints.shape[1], z.shape[1]
        first = ints[2:4].reshape(-1)
        x_strips = int(first[n])
        of = _owners(first, strips, work)
        item = work((2, strips), np.int64)
        # each strip's interval's first strip and low tile
        ints[2:6].reshape(2, 2 * n).take(of, axis=1, out=item, mode="clip")
        tile = np.subtract(work.arange(strips), item[0], out=item[0])
        tile += item[1]
        bounds.reshape(2, 2 * n).take(of, axis=1, out=z, mode="clip")
        width, tile_lo, tile_hi = work((3, strips))
        width[:x_strips], width[x_strips:] = self._tile_width[:, 0]
        np.multiply(tile, width, out=tile_lo)
        tile_lo[:x_strips] += self._tile_origin[0, 0]
        tile_lo[x_strips:] += self._tile_origin[1, 0]
        np.add(tile_lo, width, out=tile_hi)
        np.maximum(z[0], tile_lo, out=z[0])
        np.minimum(z[1], tile_hi, out=z[1])
        z -= tile_lo
        z *= 2.0
        z /= width
        z -= 1.0
        # ring offsets: a tile column spans g tiles of `slots` (k+1)^2
        # blocks, a tile row one tile's
        stride = slots * (self.spec.k + 1) ** 2
        np.multiply(tile[:x_strips], self.spec.g * stride, out=block[:x_strips])
        np.multiply(tile[x_strips:], stride, out=block[x_strips:])

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def state_arrays(self) -> dict:
        """Raw state for snapshotting (see :mod:`repro.storage.snapshot`).

        ``coeffs`` holds the retained coefficients only (``i + j <= k``, in
        :func:`~repro.chebyshev.delta.retained_offsets` order), in the ring's
        time-minor order, ``(g, g, slots, (k+1)(k+2)/2)``:
        ``coeffs[:, :, t % slots]`` is the surface of ``t``.  The scatter
        never writes an ``i + j > k`` entry, so those are zero and dropping
        them loses nothing; the array is :meth:`memory_bytes` long."""
        g, kk = self.spec.g, self.spec.k + 1
        ring = self._coeffs.reshape(g, g, self._slots, kk * kk)
        return {
            "coeffs": np.take(ring, retained_offsets(self.spec.k), axis=3),
            "slot_time": self._slot_time.copy(),
            "tnow": np.int64(self._tnow),
        }

    def load_state_arrays(self, state: dict) -> None:
        """Restore state produced by :meth:`state_arrays` (shapes must match)."""
        coeffs = np.asarray(state["coeffs"], dtype=float)
        g, kk = self.spec.g, self.spec.k + 1
        retained = retained_offsets(self.spec.k)
        expected = (g, g, self._slots, retained.shape[0])
        if coeffs.shape != expected:
            raise InvalidParameterError(
                f"snapshot shape {coeffs.shape} does not match PA state {expected}"
            )
        # A fresh zero ring, so C-contiguous: the batched scatter writes
        # through a flat reshape(-1) view, which only aliases such storage.
        ring = np.zeros((g, g, self._slots, kk * kk))
        for x in range(g):  # a tile row at a time stays cache-resident: ~2x
            ring[x][..., retained] = coeffs[x]
        self._coeffs = ring.reshape(self._coeffs.shape)
        self._slot_time = np.asarray(state["slot_time"], dtype=np.int64)
        self._tnow = int(state["tnow"])

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def surface_at(self, qt: int) -> ChebSurface:
        """The approximated density surface for ``qt``: it shares its stored
        slot's storage, or is a transient surface past the window."""
        if not (self._tnow <= qt <= self._tnow + self.horizon):
            raise HorizonError(
                f"timestamp {qt} outside maintained window {self.window}"
            )
        if qt > self._tnow + self.prediction_window:
            kk = self.spec.k + 1
            ring = np.zeros((self.spec.g, self.spec.g, 1, kk, kk))
            self._materialise(
                self._table.columns(), np.array([qt]), ring, np.zeros(1, dtype=np.int64)
            )
            return ChebSurface(self.spec, ring[:, :, 0])
        slot = qt % self._slots
        if self._slot_time[slot] != qt:  # pragma: no cover - internal invariant
            raise HorizonError(f"ring-buffer slot for {qt} not materialised")
        return ChebSurface(self.spec, self._coeffs[:, :, slot])

    def query(self, query: SnapshotPDRQuery, deadline=None) -> QueryResult:
        """Approximate PDR answer by bound-then-evaluate (Section 6.3).

        The deadline is checked once at entry: the whole pass — one tile
        bound, one batched leaf evaluation, one run scan — is about a
        millisecond at the default grid, far below any deadline worth
        setting, so there is no intermediate point at which to abandon it.
        """
        if abs(query.l - self.l) > 1e-9:
            raise InvalidParameterError(
                f"PA was built for l={self.l}; query asked l={query.l} "
                "(the approximate method fixes l, see Section 6)"
            )
        if self.faults is not None:
            self.faults.hit("pa.query")
        if deadline is not None:
            deadline.check("pa.query")
        start = time.perf_counter()
        surface = self.surface_at(query.qt)
        regions, bnb = surface.dense_regions(query.rho, md=self.md)
        cpu = time.perf_counter() - start
        TELEMETRY.tracer.record_span(
            "bnb",
            cpu,
            tiles_bounded=bnb.tiles_bounded,
            tiles_evaluated=bnb.tiles_evaluated,
            cells_evaluated=bnb.resolved_at_leaf,
            runs_emitted=len(bnb),
        )
        stats = QueryStats(method="pa", cpu_seconds=cpu, bnb_nodes=bnb.nodes_visited)
        stats.extra["bnb_seconds"] = cpu
        stats.extra["bnb_accepted"] = float(bnb.accepted_by_bound)
        stats.extra["bnb_pruned"] = float(bnb.pruned_by_bound)
        stats.extra["bnb_leaves"] = float(bnb.resolved_at_leaf)
        return QueryResult(regions=regions, stats=stats, query=query)
