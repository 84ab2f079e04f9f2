"""PA — the polynomial-approximation PDR method (Section 6).

For every timestamp in the maintained window ``[t_now, t_now + H]`` the
method keeps a ``g x g`` grid of total-degree-``k`` Chebyshev expansions of
the point-density surface.  Each object insertion (deletion) adds
(subtracts) the closed-form delta coefficients of the object's indicator
square at every covered timestamp — Algorithm 4/5 — vectorised here over
the whole trajectory in one numpy pass.  Queries bound each tile's expansion
once and evaluate the undecided tiles on the leaf grid (Section 6.3); they
never touch the objects themselves, which is why PA's query cost is
independent of the dataset size.

Unlike FR, PA fixes the neighborhood edge ``l`` at construction time (the
delta squares are baked into the coefficients); querying with a different
``l`` raises.
"""

from __future__ import annotations

import time
from typing import Tuple

import numpy as np

from ..chebyshev.delta import retained_offsets, separable_deltas, strip_integrals
from ..chebyshev.grid import ChebSurface, GridSpec
from ..core.errors import HorizonError, InvalidParameterError
from ..core.geometry import Rect
from ..core.query import QueryResult, QueryStats, SnapshotPDRQuery
from ..motion.updates import Columns, UpdateListener, Wave
from ..telemetry import TELEMETRY

__all__ = ["PAMethod"]


def _expand_runs(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten runs of ``counts[i]`` items: each run's first flat index,
    every item's run, and every item's offset inside its run."""
    first = np.cumsum(counts) - counts
    run = np.repeat(np.arange(counts.shape[0]), counts)
    return first, run, np.arange(run.shape[0]) - first[run]


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
    ) -> None:
        if l <= 0:
            raise InvalidParameterError(f"l must be positive, got {l}")
        if horizon < 0:
            raise InvalidParameterError(f"horizon must be >= 0, got {horizon}")
        self.faults = faults
        self.spec = GridSpec(domain, g, k)
        self.l = l
        self.horizon = horizon
        self.md = md
        self._tnow = tnow
        self._slots = horizon + 1
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
        return (self._tnow, self._tnow + self.horizon)

    def memory_bytes(self) -> int:
        """The paper's figure: ``H g^2 (k+1)(k+2)/2`` 8-byte coefficients."""
        return self.spec.coefficients_memory_bytes(self.horizon)

    def on_advance(self, tnow: int) -> None:
        if tnow < self._tnow:
            raise InvalidParameterError(f"clock moved backwards to {tnow}")
        steps = tnow - self._tnow
        if steps == 0:
            return
        if steps >= self._slots:
            self._coeffs[:] = 0.0
            ts = np.arange(tnow, tnow + self._slots, dtype=np.int64)
            self._slot_time[ts % self._slots] = ts
        else:
            # Expired slots are all distinct (steps < _slots): reset and
            # relabel them in two vectorised writes, mirroring the density
            # histogram's ring-buffer advance.
            t_old = np.arange(self._tnow, tnow, dtype=np.int64)
            slots = t_old % self._slots
            self._coeffs[:, :, slots] = 0.0
            self._slot_time[slots] = t_old + self._slots
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
        self._apply_batch(jobs, np.where(order < d, -1.0, 1.0))

    # Rectangles per delta/scatter flush: small enough that the chunk's
    # coefficient rows and the tiles they scatter into stay cache-resident
    # across the coefficient-major passes, large enough that the per-call
    # numpy overhead amortises away.
    _BATCH_RECTS = 4096

    def _axis_strips(
        self, s1: np.ndarray, s2: np.ndarray, origin: float, width: float
    ) -> Tuple[np.ndarray, ...]:
        """The tile strips each clipped interval ``[s1, s2]`` crosses on one axis.

        Returns ``(span, first, tile, integrals)``: strips per interval, the
        index of each interval's first strip, every strip's tile index, and
        the strips' normalised weighted integrals, shape ``(k+1, strips)``.
        """
        g = self.spec.g
        t0 = np.clip(((s1 - origin) / width).astype(np.int64), 0, g - 1)
        t1 = np.clip(((s2 - origin) / width - 1e-12).astype(np.int64), 0, g - 1)
        span = t1 - t0 + 1
        first, of, offset = _expand_runs(span)
        tile = t0[of] + offset
        tile_lo = origin + tile * width
        # Overlap of the interval with its tile, in the tile frame [-1, 1].
        z1 = 2.0 * (np.maximum(s1[of], tile_lo) - tile_lo) / width - 1.0
        z2 = 2.0 * (np.minimum(s2[of], tile_lo + width) - tile_lo) / width - 1.0
        return span, first, tile, strip_integrals(self.spec.k, z1, z2)

    def _apply_batch(self, jobs: Columns, sign: np.ndarray) -> None:
        """Add (``sign`` +1) or subtract (-1) the motions of ``jobs``, in
        order, one :meth:`Columns.passes` run at a time (Algorithms 4/5).

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
        for rows, part in jobs.passes(self._slots):
            self._apply_pass(part, sign[rows])

    def _apply_pass(self, jobs: Columns, sign: np.ndarray) -> None:
        """One pass of :meth:`_apply_batch`: numpy over every (job, covered
        timestamp, tile) of ``jobs``.

        Lemma 4's delta is separable, so the 1-D integrals are taken once
        per (job, timestamp, tile column) and once per (job, timestamp,
        tile row) strip; an overlap rectangle is a pair of strip indices.
        Rectangles come out job-major.
        """
        ts = np.arange(self._tnow, self._tnow + self._slots, dtype=np.int64)
        xs, ys = jobs.trajectory(ts)
        covered = jobs.covering(ts, self.horizon)
        # The influence square of the object at each covered timestamp,
        # clipped to the domain.
        dom = self.spec.domain
        half = self.l / 2.0
        sx1 = np.maximum(xs - half, dom.x1)
        sx2 = np.minimum(xs + half, dom.x2)
        sy1 = np.maximum(ys - half, dom.y1)
        sy2 = np.minimum(ys + half, dom.y2)
        # Timestamps where the object itself has left the domain contribute
        # nothing: density is defined over the objects inside the L x L
        # region (shared convention with histogram and brute force).
        nonempty = covered & (sx2 > sx1) & (sy2 > sy1) & dom.contains_points(xs, ys)
        if not nonempty.any():
            return
        # np.nonzero is row-major, so squares (and everything expanded from
        # them) come out job-major with no sort.
        job_idx, t_idx = np.nonzero(nonempty)
        x_span, x_first, x_tile, ax = self._axis_strips(
            sx1[nonempty], sx2[nonempty], dom.x1, self.spec.cell_width
        )
        y_span, y_first, y_tile, ay = self._axis_strips(
            sy1[nonempty], sy2[nonempty], dom.y1, self.spec.cell_height
        )

        # One rectangle per (square, tile column, tile row): a pair of
        # strip indices.
        _, of, offset = _expand_runs(x_span * y_span)
        di = offset // y_span[of]
        xi = x_first[of] + di
        yi = y_first[of] + (offset - di * y_span[of])
        heights = sign[job_idx[of]] / (self.l * self.l)

        # Scatter through a flat 1-D view (np.add.at on linear indices is
        # several times faster than the equivalent N-D fancy index), one
        # contiguous row of rectangles per retained coefficient.
        g = self.spec.g
        kk = self.spec.k + 1
        slot = (ts[t_idx] % self._slots)[of]
        base = ((x_tile[xi] * g + y_tile[yi]) * self._slots + slot) * (kk * kk)
        offsets = retained_offsets(self.spec.k)[:, None]
        flat = self._coeffs.reshape(-1)
        for start in range(0, of.shape[0], self._BATCH_RECTS):
            chunk = slice(start, start + self._BATCH_RECTS)
            deltas = separable_deltas(
                ax[:, xi[chunk]], ay[:, yi[chunk]], heights[chunk]
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
        """The approximated density surface for ``qt`` (shares storage)."""
        if not (self._tnow <= qt <= self._tnow + self.horizon):
            raise HorizonError(
                f"timestamp {qt} outside maintained window {self.window}"
            )
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
