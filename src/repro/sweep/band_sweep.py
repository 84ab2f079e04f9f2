"""Band-fused, vectorised refinement kernel — FR's production sweep.

:func:`repro.sweep.plane_sweep.refine_cell`, the oracle, refines one
rectangle at a time: an X-sweep over that rectangle's stopping events with a
1-D Y-sweep per segment.  When a query classifies thousands of candidate
cells, most of them share an *l-band*: every cell in histogram row ``j``
sweeps the same y-range ``[y1_j, y2_j)`` against (a superset of) the same
objects.  This module refines an entire batch of such **bands** in one pass:

* cells in a row are fused into maximal horizontal **strips**; a band is one
  row's worth of strips plus the objects fetched for the row's expanded
  rectangle (one range fetch per band instead of one per cell);
* a query's bands are one structure of arrays, :class:`BandBatch` — flat
  strip and object columns with a band index — and no step loops over
  bands.  Every per-band order is one flat order of ``(band, value)`` keys
  (:func:`_band_keys`), so a ``searchsorted`` on the flat array *is* the
  per-band ``searchsorted``;
* one stable sort of the objects by ``(band, x)`` orders every band's enter
  events ``x - l/2`` and its exit events ``x + l/2`` at once (both are
  monotone in ``x``); the X-breakpoints of every strip come from the merged
  distinct events, and the active set at a segment's left edge ``e`` is the
  contiguous range ``[#exits <= e, #enters <= e)`` of the band's sorted
  objects — two ``searchsorted`` calls give its count and its members;
* the per-segment Y-sweeps of *all* bands run as one flat segmented
  sort+cumsum: the (segment, object) incidence pairs are those ranges
  expanded with ``repeat``/``arange``, then every downstream step — boundary
  counts, in-range events, net deltas, running counts, dense-run extraction
  — operates on flat arrays grouped by a global segment id.

Equality with the oracle.  Each strip's breakpoint set equals
``refine_cell``'s (the same float events restricted to the same strict
interior), the active count at a left edge ``x`` equals the oracle's
admit/expire walk (``|{enter <= x < exit}| = |{enter <= x}| - |{exit <= x}|``
because ``exit >= enter``), and the flat Y-sweep performs the same
comparisons on the same floats as :func:`dense_segments_1d` segment by
segment (that routine depends only on the multiset of active y's, so the
order in which a segment's objects are listed never shows).  Fetching
a whole band's objects is harmless for any strip in it: an object outside a
strip's ``l/2`` expansion contributes no breakpoint strictly inside the strip
and is never active there.  The property suite in ``tests/test_perf_paths.py``
holds the kernel to the oracle — every emitted bound compared with ``==``
against sequential per-strip :func:`refine_cell` calls, and zero symmetric
difference against whole-domain brute force.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np

__all__ = ["BandBatch", "BandBatchResult", "refine_bands"]

# Dense test: integer count vs float rho*l^2 — nudge so equality means dense.
_THRESHOLD_EPS = 1e-9

_EMPTY_F = np.empty(0, dtype=float)
_EMPTY_I = np.empty(0, dtype=np.int64)


class BandBatch(NamedTuple):
    """Every l-band of one refinement, as one structure of arrays.

    Band ``b`` is the histogram row ``[y1[b], y2[b])``; its maximal candidate
    runs are the strips ``s`` with ``strip_band[s] == b`` (``strip_band`` is
    non-decreasing, a band's strips ascend in x and are pairwise disjoint),
    each the half-open x-extent ``[strip_x1[s], strip_x2[s])``.  The objects
    fetched for the band's ``l/2`` expansion (already domain-filtered) are
    ``px/py[offsets[b]:offsets[b + 1]]`` — the CSR columns an index's
    ``range_positions_batch`` returns.  All arrays are float64 or int64.
    """

    y1: np.ndarray
    y2: np.ndarray
    strip_x1: np.ndarray
    strip_x2: np.ndarray
    strip_band: np.ndarray
    offsets: np.ndarray
    px: np.ndarray
    py: np.ndarray


class BandBatchResult(NamedTuple):
    """Refinement output for a batch of bands.

    ``bounds`` is the ``(R, 4)`` array of dense rectangles in canonical
    emission order (band-major, strip-major, segment-minor, y ascending) —
    exactly the order sequential per-strip :func:`refine_cell` calls emit.
    ``band_of_rect`` maps each rectangle to its originating band.
    ``max_active`` is each band's maximum active-band count over all sweep
    segments (the ρ-monotonic skip bound: no l-square centred in the band's
    strips can ever hold more than this many objects).  ``segments`` counts
    X-segments examined across the batch.
    """

    bounds: np.ndarray
    band_of_rect: np.ndarray
    max_active: np.ndarray
    segments: int


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(counts.size, dtype=np.int64)
    if counts.size > 1:
        np.cumsum(counts[:-1], out=out[1:])
    return out


def _ragged(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(owner, within)`` of the concatenation of ``arange(c)`` per count."""
    owner = np.repeat(np.arange(counts.size), counts)
    within = np.arange(owner.size, dtype=np.int64) - _exclusive_cumsum(counts)[owner]
    return owner, within


def _band_keys(band: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``(band, value)`` pairs as sort keys.

    numpy orders complex numbers lexicographically — real part, then
    imaginary — in ``sort``, ``unique`` and ``searchsorted`` alike, so one
    flat array of these keys is every band's values side by side, and a
    comparison between two keys of one band is the comparison of the two
    doubles themselves (no offset is ever added to a coordinate).
    """
    keys = np.empty(values.size, dtype=complex)
    keys.real = band
    keys.imag = values
    return keys


def _merge_distinct(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The distinct values of two ascending arrays, ascending (a merge by
    rank — each element lands at its own index plus the count of the other
    array's elements before it — not a sort)."""
    merged = np.empty(a.size + b.size, dtype=a.dtype)
    merged[np.arange(a.size) + np.searchsorted(b, a, side="left")] = a
    merged[np.arange(b.size) + np.searchsorted(a, b, side="right")] = b
    distinct = np.ones(merged.size, dtype=bool)
    np.not_equal(merged[1:], merged[:-1], out=distinct[1:])
    return merged[distinct]


def refine_bands(batch: BandBatch, l: float, min_count: float) -> BandBatchResult:
    """Refine every band of ``batch``; see the module docstring for the math."""
    half = l / 2.0
    threshold = min_count - _THRESHOLD_EPS
    y1, y2 = batch.y1, batch.y2
    x1s, x2s, strip_band = batch.strip_x1, batch.strip_x2, batch.strip_band
    max_active = np.zeros(y1.size, dtype=np.int64)

    # ---------------- phase A: segment construction, all bands at once ------
    # Only objects whose y-range can overlap their band matter (the band's
    # y-extent is shared by every strip); exactness comes from the Y-sweep.
    obj_band = np.repeat(np.arange(y1.size), np.diff(batch.offsets))
    keep = (batch.py - half < y2[obj_band] + half) & (
        batch.py + half > y1[obj_band] - half
    )
    obj_band = obj_band[keep]
    xs = batch.px[keep]
    # x - l/2 and x + l/2 are both monotone in x: one sort by (band, x) puts
    # the band's enters and its exits in ascending order at once.
    order = np.argsort(_band_keys(obj_band, xs), kind="stable")
    xs = xs[order]
    ys = batch.py[keep][order]
    enters = _band_keys(obj_band, xs - half)
    exits = _band_keys(obj_band, xs + half)
    events = _merge_distinct(enters, exits)
    event_x = events.imag
    # Breakpoints strictly inside each strip: (x1, x2) ∩ its band's events.
    lo_idx = np.searchsorted(events, _band_keys(strip_band, x1s), side="right")
    hi_idx = np.searchsorted(events, _band_keys(strip_band, x2s), side="left")
    inner = hi_idx - lo_idx
    strip_of, within = _ragged(inner + 1)
    segments_total = strip_of.size
    x_lo = x1s[strip_of]
    x_hi = x2s[strip_of]
    if events.size:
        ev_idx = lo_idx[strip_of] + within
        x_lo = np.where(within == 0, x_lo, event_x[np.maximum(ev_idx - 1, 0)])
        x_hi = np.where(
            within == inner[strip_of],
            x_hi,
            event_x[np.minimum(ev_idx, events.size - 1)],
        )
    # Active at a left edge e: enter <= e < exit.  In the band's x-order the
    # objects that have entered are a prefix and so are those that have
    # expired (exit >= enter), so the active ones are the contiguous index
    # range [#exits <= e, #enters <= e) of the (band, x)-sorted objects.
    seg_band = strip_band[strip_of]
    edge = _band_keys(seg_band, x_lo)
    first_active = np.searchsorted(exits, edge, side="right")
    cnt = np.searchsorted(enters, edge, side="right") - first_active
    np.maximum.at(max_active, seg_band, cnt)

    # Empty segments are emitted full-height (only when the threshold is <= 0);
    # the global segment index is the emission-order key.
    full = np.flatnonzero(cnt == 0) if threshold <= 0 else _EMPTY_I
    # Sweep-eligible segments: the active count may clear the threshold.
    eligible = np.flatnonzero((cnt > 0) & (cnt >= threshold))

    # ---------------- phase B: flat segmented Y-sweep ----------------
    if eligible.size:
        n_eseg = eligible.size
        sx_lo = x_lo[eligible]
        sx_hi = x_hi[eligible]
        sband = seg_band[eligible]
        sy1 = y1[sband]
        sy2 = y2[sband]
        # (segment, object) incidence: each eligible segment's contiguous
        # range of active objects, expanded.  The order of the pairs inside a
        # segment is immaterial: everything below takes counts and integer
        # net deltas per (segment, coordinate) group.
        p_seg, p_rank = _ragged(cnt[eligible])
        p_y = ys[first_active[eligible][p_seg] + p_rank]
        p_enter = p_y - half
        p_exit = p_y + half

        lo_of_pair = sy1[p_seg]
        hi_of_pair = sy2[p_seg]
        # Objects already active at the band's low edge: enter <= lo < exit.
        at_lo = (p_enter <= lo_of_pair) & (p_exit > lo_of_pair)
        count0 = np.bincount(p_seg[at_lo], minlength=n_eseg)
        # Events strictly inside (lo, hi): +1 at enter, -1 at exit.
        in_enter = (lo_of_pair < p_enter) & (p_enter < hi_of_pair)
        in_exit = (lo_of_pair < p_exit) & (p_exit < hi_of_pair)
        ev_seg = np.concatenate([p_seg[in_enter], p_seg[in_exit]])
        ev_coord = np.concatenate([p_enter[in_enter], p_exit[in_exit]])
        ev_delta = np.concatenate(
            [
                np.ones(int(in_enter.sum()), dtype=np.int64),
                -np.ones(int(in_exit.sum()), dtype=np.int64),
            ]
        )
        if ev_seg.size:
            order = np.lexsort((ev_coord, ev_seg))
            ev_seg = ev_seg[order]
            ev_coord = ev_coord[order]
            ev_delta = ev_delta[order]
            # Distinct (segment, coordinate) groups and their net deltas.
            new_group = np.empty(ev_seg.size, dtype=bool)
            new_group[0] = True
            new_group[1:] = (ev_seg[1:] != ev_seg[:-1]) | (
                ev_coord[1:] != ev_coord[:-1]
            )
            group_id = np.cumsum(new_group) - 1
            net = np.bincount(group_id, weights=ev_delta).astype(np.int64)
            u_seg = ev_seg[new_group]
            u_coord = ev_coord[new_group]
            # Running count after each distinct coordinate, restarted per
            # segment: global cumsum minus the segment's preceding total.
            csum = np.cumsum(net)
            seg_first = np.empty(u_seg.size, dtype=bool)
            seg_first[0] = True
            seg_first[1:] = u_seg[1:] != u_seg[:-1]
            first_idx = np.flatnonzero(seg_first)
            base_vals = np.where(first_idx == 0, 0, csum[np.maximum(first_idx - 1, 0)])
            occurring = np.diff(np.append(first_idx, u_seg.size))
            running = csum - np.repeat(base_vals, occurring)
            m_per_seg = np.bincount(u_seg, minlength=n_eseg)
            uniq_start = _exclusive_cumsum(m_per_seg)
        else:
            u_coord = _EMPTY_F
            running = _EMPTY_I
            m_per_seg = np.zeros(n_eseg, dtype=np.int64)
            uniq_start = np.zeros(n_eseg, dtype=np.int64)

        # One "position" per sweep interval: [lo, u1), [u1, u2), ..., [um, hi).
        seg_of_pos, within = _ragged(m_per_seg + 1)
        n_pos = seg_of_pos.size
        prev_u = uniq_start[seg_of_pos] + within - 1
        if running.size:
            safe_prev = np.clip(prev_u, 0, running.size - 1)
            counts_pos = np.where(
                within == 0, count0[seg_of_pos], count0[seg_of_pos] + running[safe_prev]
            )
            left_pos = np.where(within == 0, sy1[seg_of_pos], u_coord[safe_prev])
            next_u = np.clip(prev_u + 1, 0, u_coord.size - 1)
            right_pos = np.where(
                within == m_per_seg[seg_of_pos], sy2[seg_of_pos], u_coord[next_u]
            )
        else:
            counts_pos = count0[seg_of_pos]
            left_pos = sy1[seg_of_pos]
            right_pos = sy2[seg_of_pos]
        dense = counts_pos >= threshold
        # Maximal dense runs within each segment (adjacent intervals share an
        # edge float exactly, which is what dense_segments_1d merges).
        prev_dense = np.empty(n_pos, dtype=bool)
        prev_dense[0] = False
        prev_dense[1:] = dense[:-1]
        next_dense = np.empty(n_pos, dtype=bool)
        next_dense[-1] = False
        next_dense[:-1] = dense[1:]
        run_start = dense & ~(prev_dense & (within > 0))
        run_end = dense & ~(next_dense & (within < m_per_seg[seg_of_pos]))
        s_idx = np.flatnonzero(run_start)
        e_idx = np.flatnonzero(run_end)
        run_seg = seg_of_pos[s_idx]
        sweep_bounds = np.column_stack(
            [sx_lo[run_seg], left_pos[s_idx], sx_hi[run_seg], right_pos[e_idx]]
        )
        sweep_gid = eligible[run_seg]
    else:
        sweep_bounds = np.empty((0, 4), dtype=float)
        sweep_gid = _EMPTY_I

    # ---------------- phase C: merge with full-height emissions ----------------
    # Canonical emission order is segment-major (which encodes band and strip
    # order), y ascending within a segment; the swept rows already are.
    bounds, gid = sweep_bounds, sweep_gid
    if full.size:
        full_band = seg_band[full]
        bounds = np.concatenate(
            [
                bounds,
                np.column_stack([x_lo[full], y1[full_band], x_hi[full], y2[full_band]]),
            ]
        )
        gid = np.concatenate([gid, full])
        order = np.lexsort((bounds[:, 1], gid))
        bounds, gid = bounds[order], gid[order]
    return BandBatchResult(bounds, seg_band[gid], max_active, segments_total)
