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
timestamp.  Its three stages build and consume one
:class:`~repro.sweep.band_sweep.BandBatch` — flat arrays over every band of
every entry, never unpacked into per-band objects:

* **fuse** — candidate cells become per-row **bands** of maximal strips;
* **fetch** — every band's ``l/2``-expanded hull is answered by one
  ``range_positions_batch`` call on the index, whose CSR columns become the
  batch's object columns (in whatever order the index deals them: the
  kernel depends only on each band's multiset of positions), less the
  objects whose column lies beyond reach of every candidate cell of their
  band — those can never be active in one of its segments;
* **sweep** — the band kernel :func:`repro.sweep.band_sweep.refine_bands`
  turns the batch into dense rectangles.

The kernel's output is held equal to the event-loop oracle in
:mod:`repro.sweep.plane_sweep` and to whole-domain brute force by
``tests/test_perf_paths.py``.

A query leaves nothing behind: :meth:`FRMethod.refine` is a pure function
of the histogram, the index and its arguments, so an answer and its work
counters do not depend on which queries ran before it or beside it.
"""

from __future__ import annotations

import math
import time
from typing import Dict, NamedTuple, Sequence, Tuple

import numpy as np

from ..core.errors import InvalidParameterError
from ..core.query import QueryResult, QueryStats, SnapshotPDRQuery
from ..core.regions import RegionSet
from ..histogram.density_histogram import DensityHistogram
from ..histogram.filter import filter_query
from ..storage.pages import RANDOM_IO_SECONDS
from ..sweep.band_sweep import BandBatch, refine_bands
from ..telemetry import TELEMETRY

__all__ = ["FRMethod", "Refinement"]


def _concat(parts, dtype=float) -> np.ndarray:
    """``np.concatenate`` that takes an empty list (a refinement without
    entries is an empty batch, not a special case)."""
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)


def _reach_mask(rows: np.ndarray, reach: int) -> np.ndarray:
    """``rows`` dilated along each row by ``reach`` columns either way:
    ``out[b, i]`` is true when some ``rows[b, i']`` with ``|i - i'| <=
    reach`` is.  Each step ORs the mask with itself shifted both ways by
    up to its radius plus one, so the radius grows 0, 1, 3, 7, ..."""
    out = rows.copy()
    radius = 0
    while radius < reach:
        step = min(radius + 1, reach - radius)
        out[:, step:] |= out[:, :-step]
        out[:, :-step] |= out[:, step:]
        radius += step
    return out


class Refinement(NamedTuple):
    """Output of :meth:`FRMethod.refine`.

    ``bounds`` is the ``(R, 4)`` array of dense rectangles over every
    entry, ``objects_examined`` the number of positions the index returned,
    and ``extra`` the stage seconds and band counters destined for
    ``QueryStats.extra`` — among them ``refine_objects``, the object-band
    pairs the kernel received.
    """

    bounds: np.ndarray
    objects_examined: int
    extra: Dict[str, float]


class FRMethod:
    """Exact PDR evaluation over a density histogram and a moving-object index.

    ``tree`` is any index with the two members refinement uses:
    ``range_positions_batch(rects, qts)`` (``rects`` an ``(R, 4)`` array of
    closed ``x1, y1, x2, y2`` windows, ``qts`` one timestamp per rect;
    returns the CSR columns ``(offsets, px, py)`` — rect ``r``'s positions
    at ``qts[r]`` are ``px/py[offsets[r]:offsets[r + 1]]``, in any order)
    and ``buffer`` (the :class:`~repro.storage.buffer.BufferPool` charged
    for page reads, or ``None``).  :class:`~repro.index.tree.TPRTree` is the default;
    :class:`~repro.index.bx.BxTree` is the drop-in alternative.
    """

    def __init__(self, histogram: DensityHistogram, tree, faults=None) -> None:
        if histogram is None or tree is None:
            raise InvalidParameterError("FR needs both a histogram and an index")
        self.histogram = histogram
        self.tree = tree
        self.faults = faults

    # ------------------------------------------------------------------
    # band planning
    # ------------------------------------------------------------------
    def _plan_rows(
        self, candidate: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fuse a candidate mask into per-row strips.

        Returns ``(band_row, strip_band, strip_x1, strip_x2, rows)``: the
        rows with at least one candidate cell, ascending (one band each);
        every such row's maximal runs of adjacent candidate columns as flat
        strips in band order — ``strip_band[s]`` indexes ``band_row`` —
        with world extents matching :meth:`DensityHistogram.cell_rect` bit
        for bit; and ``rows``, the ``(bands, m)`` slice of the mask the
        strips were read from (``rows[b, i]`` = cell ``(i, band_row[b])``).
        """
        hist = self.histogram
        lx = hist.cell_edge
        x0 = hist.domain.x1
        m = hist.m
        # candidate is indexed [i, j] = (column, row): only the rows that
        # hold a candidate are planned.  Framed by a False column on either
        # side, every row's value changes alternate run start, run end in
        # one flat, row-major scan.
        band_row = np.flatnonzero(candidate.any(axis=0))
        framed = np.zeros((band_row.size, m + 2), dtype=bool)
        framed[:, 1:-1] = candidate[:, band_row].T
        flips = np.flatnonzero(framed[:, 1:] != framed[:, :-1])
        strip_band, run_starts = np.divmod(flips[0::2], m + 1)
        run_ends = flips[1::2] - strip_band * (m + 1) - 1
        # Same float expressions as cell_rect: x1 = x0 + i*lx, x2 = x1 + lx.
        return (
            band_row,
            strip_band,
            x0 + run_starts * lx,
            (x0 + run_ends * lx) + lx,
            framed[:, 1:-1],
        )

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
        cooperatively once per planned band, then before the fetch and
        before the sweep.
        """
        tracer = TELEMETRY.tracer
        hist = self.histogram
        domain = hist.domain
        half = l / 2.0
        # An object more than l/2 from every strip of its band is never
        # active there; in cells that is ceil(l/2 / l_c) columns, plus one
        # for the rounding of its column and of the cell edges.
        reach = math.ceil(half / hist.cell_edge) + 1

        # --- fuse: candidate masks -> one flat batch of strip bands --------
        stage = time.perf_counter()
        band_y1, band_qt, strip_band, strip_x1, strip_x2, reachable = (
            [], [], [], [], [], []
        )
        n_bands = 0
        for qt, candidate in entries:
            band_row, strips, x1s, x2s, rows = self._plan_rows(candidate)
            for _ in range(band_row.size):
                if self.faults is not None:
                    self.faults.hit("fr.refine")
                if deadline is not None:
                    deadline.check("fr.refine")
            band_y1.append(domain.y1 + band_row * hist.cell_edge_y)
            band_qt.append(np.full(band_row.size, float(qt)))
            strip_band.append(strips + n_bands)
            strip_x1.append(x1s)
            strip_x2.append(x2s)
            reachable.append(_reach_mask(rows, reach))
            n_bands += band_row.size
        y1 = _concat(band_y1)
        y2 = y1 + hist.cell_edge_y
        strip_band = _concat(strip_band, dtype=np.int64)
        strip_x1 = _concat(strip_x1)
        strip_x2 = _concat(strip_x2)
        qts = _concat(band_qt)
        # Each band is fetched once, for the l/2 expansion of its hull.
        first = np.flatnonzero(np.diff(strip_band, prepend=-1))
        last = np.flatnonzero(np.diff(strip_band, append=n_bands))
        rects = np.column_stack(
            [strip_x1[first] - half, y1 - half, strip_x2[last] + half, y2 + half]
        )
        fuse_seconds = time.perf_counter() - stage
        # Each stage is timed once: ``extra`` is the record, the trace leaf
        # renders the same float.
        tracer.record_span("fuse", fuse_seconds, bands=n_bands)

        # --- fetch: one index call for every band --------------------------
        if deadline is not None:
            deadline.check("fr.refine")
        stage = time.perf_counter()
        offsets, px, py = self.tree.range_positions_batch(rects, qts)
        objects_examined = int(px.size)
        # Objects outside the domain do not count toward density — the
        # same convention the histogram maintains (see DensityHistogram).
        # Of those inside, a band keeps the ones whose column its reach
        # mask holds: the hull fetch also returns objects between and
        # beyond its strips' l/2 windows, which the kernel would only sort.
        m = hist.m
        column = ((px - domain.x1) / hist.cell_edge).astype(np.int64)
        np.clip(column, 0, m - 1, out=column)
        # ... as an index into the bands' flat (band, column) reach masks.
        column += np.repeat(np.arange(0, n_bands * m, m), np.diff(offsets))
        keep = (
            (px >= domain.x1) & (px < domain.x2) & (py >= domain.y1) & (py < domain.y2)
        )
        keep &= _concat(reachable, dtype=bool).ravel()[column]
        # Kept positions ascend, so a band's new offset is the number kept
        # before its old one.
        kept = np.flatnonzero(keep)
        batch = BandBatch(
            y1, y2, strip_x1, strip_x2, strip_band,
            np.searchsorted(kept, offsets), px.take(kept), py.take(kept),
        )
        refine_objects = int(batch.px.size)
        fetch_seconds = time.perf_counter() - stage
        tracer.record_span("fetch", fetch_seconds, objects=objects_examined)

        # --- sweep: the band kernel ------------------------------------------
        if deadline is not None:
            deadline.check("fr.refine")
        stage = time.perf_counter()
        swept = refine_bands(batch, l, min_count)
        sweep_seconds = time.perf_counter() - stage
        tracer.record_span(
            "sweep", sweep_seconds, rects=int(swept.bounds.shape[0]),
            objects=refine_objects, segments=swept.segments, events=swept.events,
        )

        return Refinement(
            swept.bounds,
            objects_examined,
            {
                "fuse_seconds": fuse_seconds,
                "fetch_seconds": fetch_seconds,
                "sweep_seconds": sweep_seconds,
                "refine_bands": float(n_bands),
                "refine_objects": float(refine_objects),
                "refine_segments": float(swept.segments),
                "refine_events": float(swept.events),
            },
        )

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
        bounds = np.concatenate(
            [self.histogram.cell_bounds(filtered.accepted), refined.bounds]
        )
        # Accepted cells, candidate strips and per-strip sweep emissions are
        # pairwise disjoint by construction: the O(n) area fast path applies.
        regions = RegionSet.from_bounds(bounds, disjoint=True)
        merge_seconds = time.perf_counter() - stage
        tracer.record_span("merge", merge_seconds, rects=len(regions))

        cpu = time.perf_counter() - start
        io_count = (buffer.stats.misses - io_before) if buffer is not None else 0
        io_seconds = io_count * RANDOM_IO_SECONDS
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
