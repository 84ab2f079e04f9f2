"""FR — the exact filtering-refinement PDR method (Section 5).

Evaluation proceeds in two steps:

1. **Filter** (Algorithm 1): classify every histogram cell as accepted
   (provably dense in full), rejected (provably nowhere dense) or candidate,
   using the conservative/expansive neighborhood counts.
2. **Refine** (Algorithms 2-3): fetch the objects that can influence the
   candidate cells from the moving-object index (paying simulated I/O
   through the buffer pool), then plane-sweep them into the exact dense
   sub-rectangles.

The union of accepted cells and refined rectangles is the exact PDR answer.

Refinement exists once, in :meth:`FRMethod.refine`; snapshot queries hand
it one ``(qt, candidate mask)`` entry and interval queries
(:func:`repro.methods.interval.evaluate_interval_fr`) one entry per pending
timestamp.  It runs three stages:

* **fuse** — candidate cells become per-row **bands** of maximal strips;
* **fetch** — every band's ``l/2``-expanded rectangle is answered by one
  ``range_positions_batch`` call on the index;
* **sweep** — the band kernel :func:`repro.sweep.band_sweep.refine_bands`
  turns the bands into dense rectangles, inline or fanned across a process
  pool (``REPRO_REFINE_WORKERS``; band tasks are picklable snapshot arrays).

The kernel's output is held equal to the event-loop oracle in
:mod:`repro.sweep.plane_sweep` and to whole-domain brute force by
``tests/test_perf_paths.py``.

Result reuse: per-band maximum active counts are cached per
``(index epoch, histogram epoch, qt, l)``.  A later query over the same
snapshot with a *higher* density threshold skips — without fetching or
sweeping — every band whose strips are covered by the cached strips and
whose cached maximum is below the new threshold (no l-square centred in the
band can ever hold more objects than the band's maximum active count; this
is the ρ-monotonic containment rule).
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import InvalidParameterError
from ..core.geometry import Rect
from ..core.query import QueryResult, QueryStats, SnapshotPDRQuery
from ..core.regions import RegionSet
from ..histogram.density_histogram import DensityHistogram
from ..histogram.filter import filter_query
from ..sweep.band_sweep import (
    _THRESHOLD_EPS,
    BandBatchResult,
    BandTask,
    merge_band_results,
    refine_bands,
    _refine_bands_worker,
)
from ..telemetry import TELEMETRY
from ..telemetry import instruments as tm

__all__ = ["FRMethod", "Refinement"]

# Keep this many (index epoch, histogram epoch, qt, l) snapshot keys of
# per-band maxima around for the ρ-monotonic skip rule.
_BAND_CACHE_KEYS = 8

# Process pool shared by every FRMethod in the process; sized lazily to the
# last requested worker count (queries are read-only, so one pool serves all
# instances).
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0
_POOL_LOCK = threading.Lock()


def _refine_pool(workers: int) -> ProcessPoolExecutor:
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        if _POOL is None or _POOL_WORKERS != workers:
            if _POOL is not None:
                _POOL.shutdown(wait=False)
            # Spawned workers import the package fresh: no inherited locks
            # from the (possibly threaded) serving process.
            import multiprocessing

            _POOL = ProcessPoolExecutor(
                max_workers=workers, mp_context=multiprocessing.get_context("spawn")
            )
            _POOL_WORKERS = workers
        return _POOL


def _drop_pool(pool: ProcessPoolExecutor) -> None:
    """Forget a broken pool so the next pooled query builds a fresh one."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is pool:
            _POOL = None
    pool.shutdown(wait=False)


class Refinement(NamedTuple):
    """Output of :meth:`FRMethod.refine`.

    ``bounds`` is the ``(R, 4)`` array of dense rectangles over every
    entry, ``objects_examined`` the number of positions the index returned,
    and ``extra`` the stage seconds and band counters destined for
    ``QueryStats.extra``.
    """

    bounds: np.ndarray
    objects_examined: int
    extra: Dict[str, float]


class FRMethod:
    """Exact PDR evaluation over a density histogram and a moving-object index.

    ``tree`` is any index with the three members refinement uses:
    ``range_positions_batch(rects, qts)`` (per-rect ``(xs, ys)`` arrays of
    the positions at ``qts`` inside each closed rect), ``buffer`` (the
    :class:`~repro.storage.buffer.BufferPool` charged for page reads, or
    ``None``) and ``epoch`` (a counter that moves on every content change,
    which keys the band cache).  :class:`~repro.index.tree.TPRTree` is the
    default; :class:`~repro.index.bx.BxTree` is the drop-in alternative.

    ``refine_workers`` fans band sweeps across a process pool (0 = inline;
    defaults to ``REPRO_REFINE_WORKERS``).
    """

    def __init__(
        self,
        histogram: DensityHistogram,
        tree,
        faults=None,
        refine_workers: Optional[int] = None,
    ) -> None:
        if histogram is None or tree is None:
            raise InvalidParameterError("FR needs both a histogram and an index")
        self.histogram = histogram
        self.tree = tree
        if refine_workers is None:
            try:
                refine_workers = int(os.environ.get("REPRO_REFINE_WORKERS", "0"))
            except ValueError:
                refine_workers = 0
        self.refine_workers = max(0, refine_workers)
        self.faults = faults
        # (index epoch, histogram epoch, qt, l) -> {row j: (x1s, x2s, max_active)}
        self._band_cache: "OrderedDict[tuple, Dict[int, tuple]]" = OrderedDict()
        self._band_cache_lock = threading.Lock()

    # ------------------------------------------------------------------
    # band planning
    # ------------------------------------------------------------------
    def _plan_rows(self, candidate: np.ndarray) -> List[Tuple[int, np.ndarray, np.ndarray]]:
        """Fuse a candidate mask into per-row strips.

        Returns ``(row j, strips_x1, strips_x2)`` for every row with at
        least one candidate cell; strips are the maximal runs of adjacent
        candidate columns, with world extents matching
        :meth:`DensityHistogram.cell_rect` bit for bit.
        """
        hist = self.histogram
        lx = hist.cell_edge
        x0 = hist.domain.x1
        out: List[Tuple[int, np.ndarray, np.ndarray]] = []
        # candidate is indexed [i, j] = (column, row).
        for j in np.flatnonzero(candidate.any(axis=0)):
            cols = np.flatnonzero(candidate[:, j])
            breaks = np.flatnonzero(np.diff(cols) > 1)
            run_starts = cols[np.concatenate([[0], breaks + 1])]
            run_ends = cols[np.concatenate([breaks, [cols.size - 1]])]
            # Same float expressions as cell_rect: x1 = x0 + i*lx, x2 = x1 + lx.
            x1s = x0 + run_starts * lx
            x2s = (x0 + run_ends * lx) + lx
            out.append((int(j), x1s.astype(float), x2s.astype(float)))
        return out

    def _accepted_bounds(self, filtered) -> np.ndarray:
        """Accepted-cell rectangles as a bounds array (cell_rect floats)."""
        ai, aj = np.nonzero(filtered.accepted)
        if ai.size == 0:
            return np.empty((0, 4), dtype=float)
        hist = self.histogram
        x1 = hist.domain.x1 + ai * hist.cell_edge
        y1 = hist.domain.y1 + aj * hist.cell_edge_y
        return np.column_stack([x1, y1, x1 + hist.cell_edge, y1 + hist.cell_edge_y])

    # ------------------------------------------------------------------
    # ρ-monotonic band cache
    # ------------------------------------------------------------------
    @staticmethod
    def _strips_covered(
        x1s: np.ndarray, x2s: np.ndarray, cx1: np.ndarray, cx2: np.ndarray
    ) -> bool:
        """True when every [x1, x2) strip lies inside some cached strip."""
        idx = np.searchsorted(cx1, x1s, side="right") - 1
        if (idx < 0).any():
            return False
        return bool((x1s >= cx1[idx]).all() and (x2s <= cx2[idx]).all())

    def _skippable_rows(
        self, key: tuple, rows, threshold: float
    ) -> set:
        """Rows whose cached band maximum proves the refinement empty."""
        with self._band_cache_lock:
            cached = self._band_cache.get(key)
            if cached is None:
                return set()
            skippable = set()
            for j, x1s, x2s in rows:
                entry = cached.get(j)
                if entry is None:
                    continue
                cx1, cx2, m_b = entry
                if m_b < threshold and self._strips_covered(x1s, x2s, cx1, cx2):
                    skippable.add(j)
            return skippable

    def _remember_row(self, key: tuple, j: int, entry: tuple) -> None:
        with self._band_cache_lock:
            bucket = self._band_cache.get(key)
            if bucket is None:
                bucket = self._band_cache[key] = {}
                while len(self._band_cache) > _BAND_CACHE_KEYS:
                    self._band_cache.popitem(last=False)
            else:
                self._band_cache.move_to_end(key)
            bucket[j] = entry

    # ------------------------------------------------------------------
    # refinement
    # ------------------------------------------------------------------
    def refine(
        self,
        entries: Sequence[Tuple[float, np.ndarray]],
        l: float,
        min_count: float,
        deadline=None,
    ) -> Refinement:
        """Refine candidate cells into exact dense rectangles (Algorithms 2-3).

        ``entries`` is ``[(qt, candidate mask)]``: one entry for a snapshot
        query, one per pending timestamp for an interval query.  Every
        entry's bands share one index call — adjacent timestamps touch
        nearly the same pages, so a shared traversal reads and charges each
        page once — and one kernel pass.  ``deadline`` is checked
        cooperatively before each band.
        """
        tracer = TELEMETRY.tracer
        hist = self.histogram
        domain = hist.domain
        half = l / 2.0
        threshold = min_count - _THRESHOLD_EPS

        # --- fuse: candidate masks -> per-row strip bands ------------------
        stage = time.perf_counter()
        # One element per band to sweep, in step: where its maximum will be
        # cached, when and where to fetch it, and its (y1, y2, x1s, x2s).
        cache_slots, qts, rects, strips = [], [], [], []
        planned = 0
        for qt, candidate in entries:
            rows = self._plan_rows(candidate)
            planned += len(rows)
            for _ in rows:
                if self.faults is not None:
                    self.faults.hit("fr.refine")
                if deadline is not None:
                    deadline.check("fr.refine")
            key = (self.tree.epoch, hist._epoch, float(qt), float(l))
            skippable = self._skippable_rows(key, rows, threshold)
            for j, x1s, x2s in rows:
                if j in skippable:
                    continue
                y1 = domain.y1 + j * hist.cell_edge_y
                y2 = y1 + hist.cell_edge_y
                cache_slots.append((key, j))
                qts.append(float(qt))
                rects.append(
                    Rect(float(x1s[0]) - half, y1 - half, float(x2s[-1]) + half, y2 + half)
                )
                strips.append((y1, y2, x1s, x2s))
        skipped = planned - len(strips)
        fuse_seconds = time.perf_counter() - stage
        # Each measured stage float is both handed back in ``extra`` and
        # recorded as a trace leaf, so trace-derived totals equal it exactly.
        tracer.record_span("fuse", fuse_seconds, bands=planned, skipped=skipped)

        # --- fetch: one index call for every band --------------------------
        stage = time.perf_counter()
        objects_examined = 0
        tasks: List[BandTask] = []
        fetched = self.tree.range_positions_batch(rects, np.array(qts))
        for strip, (px, py) in zip(strips, fetched):
            objects_examined += int(px.size)
            # Objects outside the domain do not count toward density — the
            # same convention the histogram maintains (see DensityHistogram).
            inside = (
                (px >= domain.x1)
                & (px < domain.x2)
                & (py >= domain.y1)
                & (py < domain.y2)
            )
            tasks.append(BandTask(*strip, px[inside], py[inside]))
        fetch_seconds = time.perf_counter() - stage
        tracer.record_span("fetch", fetch_seconds, objects=objects_examined)

        # --- sweep: the band kernel, then remember each band's maximum -----
        stage = time.perf_counter()
        swept = self._sweep(tasks, l, min_count)
        for (key, j), task, m_b in zip(cache_slots, tasks, swept.max_active):
            self._remember_row(key, j, (task.strips_x1, task.strips_x2, int(m_b)))
        sweep_seconds = time.perf_counter() - stage
        tracer.record_span(
            "sweep", sweep_seconds, rects=int(swept.bounds.shape[0]),
            segments=swept.segments,
        )

        tm.REFINE_BANDS.labels("swept").inc(len(tasks))
        tm.REFINE_BANDS.labels("skipped").inc(skipped)
        tm.REFINE_POOL_WORKERS.set(float(self.refine_workers))
        tm.REFINE_BAND_SECONDS.labels("fuse").observe(fuse_seconds)
        tm.REFINE_BAND_SECONDS.labels("fetch").observe(fetch_seconds)
        tm.REFINE_BAND_SECONDS.labels("sweep").observe(sweep_seconds)
        return Refinement(
            swept.bounds,
            objects_examined,
            {
                "fuse_seconds": fuse_seconds,
                "fetch_seconds": fetch_seconds,
                "sweep_seconds": sweep_seconds,
                "refine_bands": float(len(tasks)),
                "refine_bands_skipped": float(skipped),
                "refine_segments": float(swept.segments),
                "refine_workers": float(self.refine_workers),
            },
        )

    def _sweep(
        self, tasks: List[BandTask], l: float, min_count: float
    ) -> BandBatchResult:
        """Run the band kernel inline, or chunked across the refine pool."""
        workers = self.refine_workers
        if workers == 0 or len(tasks) < 2:
            return refine_bands(tasks, l, min_count)
        chunks = np.array_split(np.arange(len(tasks)), min(workers, len(tasks)))
        offsets = [int(chunk[0]) for chunk in chunks]
        payloads = [
            ([tuple(tasks[i]) for i in chunk], l, min_count) for chunk in chunks
        ]
        pool = _refine_pool(workers)
        try:
            results = list(pool.map(_refine_bands_worker, payloads))
        except BrokenProcessPool:
            # A worker died (OOM kill, operator signal).  The executor stays
            # broken for good, so answer this query inline and let the next
            # pooled query build a fresh pool.
            _drop_pool(pool)
            return refine_bands(tasks, l, min_count)
        return merge_band_results(results, offsets)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, query: SnapshotPDRQuery, deadline=None) -> QueryResult:
        """Exact PDR answer; stats include filter counters and charged I/O.

        ``deadline`` (a :class:`repro.reliability.deadline.Deadline`) is
        checked cooperatively before each band refinement — refinement is
        where FR's cost lives — raising
        :class:`~repro.core.errors.DeadlineExceededError` so the degradation
        ladder can fall back to a cheaper method.
        """
        buffer = self.tree.buffer
        io_before = buffer.stats.misses if buffer is not None else 0
        hits_before = self.histogram.cache_hits
        misses_before = self.histogram.cache_misses
        start = time.perf_counter()

        tracer = TELEMETRY.tracer
        filtered = filter_query(self.histogram, query)
        filter_seconds = time.perf_counter() - start
        tracer.record_span("filter", filter_seconds)

        refined = self.refine(
            [(query.qt, filtered.candidate)], query.l, query.min_count, deadline
        )

        # --- merge: accepted cells + refined rects -------------------------
        stage = time.perf_counter()
        bounds = np.concatenate([self._accepted_bounds(filtered), refined.bounds])
        # Accepted cells, candidate strips and per-strip sweep emissions are
        # pairwise disjoint by construction: the O(n) area fast path applies.
        regions = RegionSet.from_bounds(bounds, disjoint=True)
        merge_seconds = time.perf_counter() - stage
        tracer.record_span("merge", merge_seconds, rects=len(regions))
        tm.REFINE_BAND_SECONDS.labels("merge").observe(merge_seconds)

        cpu = time.perf_counter() - start
        io_count = (buffer.stats.misses - io_before) if buffer is not None else 0
        io_seconds = (
            io_count * buffer.io_seconds_per_miss if buffer is not None else 0.0
        )
        stats = QueryStats(
            method="fr",
            cpu_seconds=cpu,
            io_count=io_count,
            io_seconds=io_seconds,
            accepted_cells=filtered.accepted_count,
            rejected_cells=filtered.rejected_count,
            candidate_cells=filtered.candidate_count,
            objects_examined=refined.objects_examined,
        )
        stats.extra.update(refined.extra)
        stats.extra["filter_seconds"] = filter_seconds
        stats.extra["merge_seconds"] = merge_seconds
        stats.extra["cache_hits"] = float(self.histogram.cache_hits - hits_before)
        stats.extra["cache_misses"] = float(
            self.histogram.cache_misses - misses_before
        )
        return QueryResult(regions=regions, stats=stats, query=query)
