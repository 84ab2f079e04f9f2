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


def _gather(values: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``values[index]`` (``values`` flat or 1-D), written into ``out``.

    Every index a pass gathers with is built from the sizes of the array it
    indexes (a run's items, a square's job and timestamp, a strip of the
    pass's own), so it is in range by construction.  ``mode="clip"`` only
    keeps numpy from copying ``out`` into a fresh buffer, as it does under
    the default ``mode="raise"``; it would clamp an index out of range
    rather than raise, which the byte-identity tests would show.
    """
    return np.take(values, index, mode="clip", out=out)


def _run_starts(counts: np.ndarray, work: Workspace) -> np.ndarray:
    """Each run of ``counts[i]`` items' first flat index, then the total:
    ``n + 1`` entries taken from ``work``."""
    first = work(counts.shape[0] + 1, np.int64)
    first[0] = 0
    np.cumsum(counts, out=first[1:])
    return first


def _run_items(first: np.ndarray, work: Workspace) -> Tuple[np.ndarray, np.ndarray]:
    """Every item's run and its offset inside the run, for the runs whose
    :func:`_run_starts` are ``first`` — arrays taken from ``work``."""
    n, total = first.shape[0] - 1, int(first[-1])
    # A run starts where the previous ones' items end; empty runs start
    # where the next one does, so the marks count runs, not positions.
    run = work(total + 1, np.int64)
    run.fill(0)
    np.add.at(run, first[1:n], 1)
    run = np.cumsum(run[:total], out=run[:total])
    offset = _gather(first, run, out=work(total, np.int64))
    return run, np.subtract(work.arange(total), offset, out=offset)


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
        # the coefficients to come out bit-identical.  A retraction takes
        # the turn of the report that supersedes it (a retire, which no
        # report supersedes, keeps its own).
        d, n = len(wave.deleted), len(wave.inserted)
        turn = np.arange(d)
        replaces = wave.supersedes >= 0
        turn[wave.supersedes[replaces]] = np.flatnonzero(replaces)
        order = np.argsort(
            np.concatenate((2 * turn, 2 * np.arange(n) + 1)), kind="stable"
        )
        jobs = Columns.concatenate((wave.deleted, wave.inserted)).take(order)
        ts = np.arange(self._tnow, self._tnow + self._slots, dtype=np.int64)
        self._apply_batch(
            jobs, np.where(order < d, -1.0, 1.0), ts, self._coeffs, ts % self._slots
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

    def _strips(
        self,
        s1: np.ndarray,
        s2: np.ndarray,
        origin: np.ndarray,
        width: np.ndarray,
        work: Workspace,
    ) -> Tuple[np.ndarray, ...]:
        """The tile strips each clipped interval ``[s1[a, i], s2[a, i]]``
        crosses on axis ``a`` (0 is x, 1 is y), both axes in one flat run.

        ``origin`` and ``width`` are the axes' ``(2, 1)`` domain origins and
        tile widths.  Returns ``(span, first, tile, integrals)`` over the
        flattened ``(2, N)`` intervals, views of ``work``'s buffers: strips
        per interval, the index of each interval's first strip, every
        strip's tile index, and the strips' normalised weighted integrals,
        shape ``(k+1, strips)``.  Elementwise these are the floats of one
        axis at a time; one call for both halves the pass's fixed numpy
        overhead.
        """
        g = self.spec.g
        t0, t1 = work(s1.shape, np.int64), work(s1.shape, np.int64)
        with work.frame():
            scaled = work(s1.shape)
            for s, nudge, t in ((s1, 0.0, t0), (s2, 1e-12, t1)):
                np.subtract(s, origin, out=scaled)
                scaled /= width
                if nudge:
                    scaled -= nudge
                t[...] = scaled  # astype(np.int64): truncation
                # np.minimum(np.maximum()) is np.clip without its per-call overhead.
                np.minimum(np.maximum(t, 0, out=t), g - 1, out=t)
        t0, t1 = t0.reshape(-1), t1.reshape(-1)
        span = np.add(np.subtract(t1, t0, out=t1), 1, out=t1)
        first = _run_starts(span, work)
        strips = int(first[-1])
        tile = work(strips, np.int64)
        integrals = work((self.spec.k + 1, strips))
        with work.frame():
            # Overlap of the interval with its tile, in the tile frame [-1, 1].
            z1, z2 = work(strips), work(strips)
            with work.frame():
                of, offset = _run_items(first, work)
                tile = _gather(t0, of, out=tile)
                tile += offset
                axis = np.floor_divide(of, s1.shape[1], out=offset)
                w = _gather(width.reshape(-1), axis, out=work(strips))
                tile_lo = np.multiply(tile, w, out=work(strips))
                tile_lo += _gather(origin.reshape(-1), axis, out=work(strips))
                tile_hi = np.add(tile_lo, w, out=work(strips))
                for z, s, clamp, edge in (
                    (z1, s1, np.maximum, tile_lo), (z2, s2, np.minimum, tile_hi)
                ):
                    clamp(_gather(s.reshape(-1), of, out=z), edge, out=z)
                    z -= tile_lo
                    z *= 2.0
                    z /= w
                    z -= 1.0
            strip_integrals(self.spec.k, z1, z2, work, out=integrals)
        return span, first[:-1], tile, integrals

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
        Rectangles come out job-major.  Every array of the pass's size is
        taken from ``work`` (in the caller's frame); only masks (a byte per
        entry), the squares' index and each flush's arrays (bounded by
        :attr:`_BATCH_RECTS`) are fresh.
        """
        shape = (len(jobs), ts.shape[0])
        dom = self.spec.domain
        # The squares' bounds and job indices, at most one a grid entry.
        lows, highs = work(2 * shape[0] * shape[1]), work(2 * shape[0] * shape[1])
        job_idx = work(shape[0] * shape[1], np.int64)
        with work.frame():
            xs, ys = jobs.trajectory(ts, out=(work(shape), work(shape)))
            # The influence square of the object at each covered timestamp,
            # clipped to the domain.
            half = self.l / 2.0
            sx1, sx2, sy1, sy2 = (work(shape) for _ in range(4))
            np.maximum(np.subtract(xs, half, out=sx1), dom.x1, out=sx1)
            np.minimum(np.add(xs, half, out=sx2), dom.x2, out=sx2)
            np.maximum(np.subtract(ys, half, out=sy1), dom.y1, out=sy1)
            np.minimum(np.add(ys, half, out=sy2), dom.y2, out=sy2)
            # Timestamps where the object itself has left the domain
            # contribute nothing: density is defined over the objects inside
            # the L x L region (shared convention with histogram and brute
            # force).
            nonempty = jobs.covering(ts, self.horizon, out=work(shape, bool))
            nonempty &= sx2 > sx1
            nonempty &= sy2 > sy1
            nonempty &= dom.contains_points(xs, ys)
            n = int(np.count_nonzero(nonempty))
            if not n:
                return
            # The row-major mask's flat indices keep the squares (and
            # everything expanded from them) job-major with no sort.  (The
            # pass's one fresh index array: np.compress would allocate two
            # per call.)
            square = np.flatnonzero(nonempty)
            lows, highs = lows[: 2 * n].reshape(2, n), highs[: 2 * n].reshape(2, n)
            for out, values in (
                (lows[0], sx1), (lows[1], sy1), (highs[0], sx2), (highs[1], sy2)
            ):
                _gather(values.reshape(-1), square, out=out)
        job_idx, t_idx = np.divmod(square, shape[1], out=(job_idx[:n], square))
        span, first, tile, strips = self._strips(
            lows,
            highs,
            np.array([[dom.x1], [dom.y1]]),
            np.array([[self.spec.cell_width], [self.spec.cell_height]]),
            work,
        )
        x_span, y_span, x_first, y_first = span[:n], span[n:], first[:n], first[n:]

        # One rectangle per (square, tile column, tile row): a pair of
        # strip indices.
        g = self.spec.g
        kk = self.spec.k + 1
        rect_first = _run_starts(np.multiply(x_span, y_span, out=work(n, np.int64)), work)
        rects = int(rect_first[-1])
        xi, yi, base = (work(rects, np.int64) for _ in range(3))
        heights = work(rects)
        with work.frame():
            of, offset = _run_items(rect_first, work)
            rows_of = _gather(y_span, of, out=work(rects, np.int64))
            di = np.floor_divide(offset, rows_of, out=work(rects, np.int64))
            # offset - di * rows: the strip's row inside its square.
            offset -= np.multiply(di, rows_of, out=rows_of)
            xi = _gather(x_first, of, out=xi)
            xi += di
            yi = _gather(y_first, of, out=yi)
            yi += offset
            heights = _gather(sign, _gather(job_idx, of, out=di), out=heights)
            heights /= self.l * self.l
            # ((tile[xi] * g + tile[yi]) * slots + slot[t_idx[of]]) * kk^2
            base = _gather(tile, xi, out=base)
            base *= g
            base += _gather(tile, yi, out=rows_of)
            base *= ring.shape[2]
            base += _gather(slot, _gather(t_idx, of, out=di), out=rows_of)
            base *= kk * kk

        # Scatter through a flat 1-D view (np.add.at on linear indices is
        # several times faster than the equivalent N-D fancy index), one
        # contiguous row of rectangles per retained coefficient.
        offsets = retained_offsets(self.spec.k)[:, None]
        flat = ring.reshape(-1)
        for start in range(0, rects, self._BATCH_RECTS):
            chunk = slice(start, start + self._BATCH_RECTS)
            # np.take, not strips[:, xi[chunk]]: a fancy index along the
            # second axis made a CH2K pass ~15 % slower.
            deltas = separable_deltas(
                np.take(strips, xi[chunk], axis=1),
                np.take(strips, yi[chunk], axis=1),
                heights[chunk],
            )
            np.add.at(flat, (base[chunk] + offsets).reshape(-1), deltas.reshape(-1))

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
