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
  bands.  Every per-band order is one flat order of ``(band, value)`` pairs:
  complex search keys (:func:`_band_keys`), on which a ``searchsorted``
  *is* the per-band ``searchsorted``, or a sort of the values followed by a
  stable sort on the band index (:func:`_sort_pairs`);
* one sort of the objects by ``(band, x)`` orders every band's enter events
  ``x - l/2`` and its exit events ``x + l/2`` at once (both are monotone in
  ``x``).  A strip's breakpoints are the enters and the exits strictly inside
  it — two ranges of that order, sorted together per strip — and the active
  set at a segment's left edge ``e`` is the contiguous range ``[#exits <= e,
  #enters <= e)`` of the band's sorted objects: the two counts at the
  strip's left end plus the strip's own stops at or before ``e``;
* the per-segment Y-sweeps of *all* bands run as one flat pass in which no
  array is indexed by (segment, object) pair.  A band is one histogram row,
  ``l_c <= l/2`` tall (Algorithm 1's precondition) inside a reach of ``l +
  l_c``, so only the objects in two ``l_c``-thin slabs — a share ``2 l_c /
  (l + l_c)`` — open or close their square inside the band; the others
  cover it whole.  Which of the three an object does depends on the band
  alone, so it is asked once per (band, object); prefix sums over the
  x-order then turn a segment's active range into its count at the band's
  low edge (a difference) and into *one range of the band's event list*,
  the only thing expanded per segment.  The event coordinates are ranked
  once per band, an expanded event is one int64 ``(segment, rank, sign)``,
  and sorting those values is the whole sweep order: running counts and
  dense runs are flat passes over the sorted keys;
* the segments are expanded and swept in consecutive runs of at most
  :data:`RUN_EVENTS` keys, so the sweep's working set is bounded whatever
  the world's size.  A segment's sweep restarts at its low edge and the
  emission is segment-major, so the runs' rectangles, concatenated in
  order, are the emission of one run.

Equality with the oracle.  Each strip's breakpoint set equals
``refine_cell``'s (the same float events restricted to the same strict
interior), the active count at a left edge ``x`` equals the oracle's
admit/expire walk (``|{enter <= x < exit}| = |{enter <= x}| - |{exit <= x}|``
because ``exit >= enter``), and the flat Y-sweep performs the same
comparisons on the same floats as :func:`dense_segments_1d` segment by
segment: ``y - l/2`` and ``y + l/2`` against the band's ``y1`` and ``y2``
involve nothing of the segment, so comparing once per (band, object) is
comparing once per pair; two events share a rank exactly when their doubles
are equal (the oracle folds equal coordinates into one net delta) and ranks
ascend with the doubles; every emitted y-bound is one of those doubles,
looked up by rank, never recomputed.  (That routine depends only on the
multiset of active y's, so the order in which a segment's objects are
listed — hence the order of equal x's in the sort — never shows.)  Fetching
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

from ..motion.updates import PASS_JOB_SLOTS

__all__ = ["BandBatch", "BandBatchResult", "refine_bands", "RUN_EVENTS"]

# Dense test: integer count vs float rho*l^2 — nudge so equality means dense.
_THRESHOLD_EPS = 1e-9

# Phase B's working-set budget, in expanded keys (Y-events plus a low edge
# per segment): the write passes' one budget, scaled so that a run holds
# ~6 MB at any world size (~100 bytes of temporaries a key).  A CH2K query
# (at most ~41 000 keys) is one run.
RUN_EVENTS = 16 * PASS_JOB_SLOTS

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
    ``segments`` counts X-segments examined across the batch, ``events`` the
    Y-events expanded for them (what the sweep's time is proportional to).
    """

    bounds: np.ndarray
    band_of_rect: np.ndarray
    segments: int
    events: int


def _prefix_counts(flags: np.ndarray) -> np.ndarray:
    """``out[i]`` = the sum of ``flags[:i]``, for ``i`` up to ``flags.size``."""
    out = np.zeros(flags.size + 1, dtype=np.int64)
    np.cumsum(flags, out=out[1:])
    return out


def _ranges(first: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(owner, index)`` of the concatenated ranges ``first[i] + arange(counts[i])``."""
    owner = np.repeat(np.arange(counts.size), counts)
    shift = np.repeat(first - _prefix_counts(counts)[:-1], counts)
    return owner, np.arange(owner.size, dtype=np.int64) + shift


def _last_of_run(ids: np.ndarray) -> np.ndarray:
    """Flags on the last element of every run of equal ``ids``."""
    last = np.ones(ids.size, dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=last[:-1])
    return last


def _band_keys(band: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``(band, value)`` pairs as search keys.

    numpy orders complex numbers lexicographically — real part, then
    imaginary — so one flat array of these keys is every band's values side
    by side, and a comparison between two keys of one band is the comparison
    of the two doubles themselves (no offset is ever added to a coordinate).
    """
    keys = np.empty(values.size, dtype=complex)
    keys.real = band
    keys.imag = values
    return keys


def _sort_pairs(
    group: np.ndarray, values: np.ndarray, n_groups: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort ``(group, value)`` pairs: the permutation, the sorted values and
    a flag on the first of every run of equal pairs.

    An unstable sort of the doubles, then a stable sort on the group index
    alone — numpy's radix sort when the batch has few enough groups for 16
    bits.  The order of equal pairs is left open.
    """
    order = np.argsort(values)
    group = group[order].astype(np.uint16 if n_groups <= 1 << 16 else np.int64)
    by_group = np.argsort(group, kind="stable")
    order = order[by_group]
    group = group[by_group]
    values = values[order]
    distinct = np.ones(order.size, dtype=bool)
    distinct[1:] = (group[1:] != group[:-1]) | (values[1:] != values[:-1])
    return order, values, distinct


class _Segments(NamedTuple):
    """Phase A's output: the objects that can reach their band, in (band,
    x) order (``obj_band``, ``ys``), and every X-segment's band, x-extent,
    first active object and active count."""

    obj_band: np.ndarray
    ys: np.ndarray
    band: np.ndarray
    x_lo: np.ndarray
    x_hi: np.ndarray
    first_active: np.ndarray
    count: np.ndarray


def _strip_counts(
    obj_band: np.ndarray, stops: np.ndarray, batch: BandBatch
) -> Tuple[np.ndarray, ...]:
    """``(entered, expired, n_enter, n_exit)`` per strip: at a strip's left
    end this many of the flat (band, x)-order have entered and this many
    have expired; its breakpoints are the enters and the exits strictly
    inside (x1, x2), two ranges of ``stops`` (every enter, then every
    exit)."""
    n_obj = obj_band.size
    enters = _band_keys(obj_band, stops[:n_obj])
    exits = _band_keys(obj_band, stops[n_obj:])
    strip_lo = _band_keys(batch.strip_band, batch.strip_x1)
    strip_hi = _band_keys(batch.strip_band, batch.strip_x2)
    entered = np.searchsorted(enters, strip_lo, side="right")
    expired = np.searchsorted(exits, strip_lo, side="right")
    n_enter = np.searchsorted(enters, strip_hi, side="left") - entered
    n_exit = np.searchsorted(exits, strip_hi, side="left") - expired
    return entered, expired, n_enter, n_exit


def _segments(batch: BandBatch, half: float) -> _Segments:
    """Phase A: segment construction, all bands at once."""
    y1, y2 = batch.y1, batch.y2
    x1s, x2s, strip_band = batch.strip_x1, batch.strip_x2, batch.strip_band
    n_bands, n_strips = y1.size, x1s.size
    # Only objects whose y-range can overlap their band matter (the band's
    # y-extent is shared by every strip); exactness comes from the Y-sweep.
    obj_band = np.repeat(np.arange(n_bands), np.diff(batch.offsets))
    keep = (batch.py - half < y2[obj_band] + half) & (
        batch.py + half > y1[obj_band] - half
    )
    obj_band = obj_band[keep]
    # x - l/2 and x + l/2 are both monotone in x: one sort by (band, x) puts
    # the band's enters and its exits in ascending order at once.
    order, xs, _ = _sort_pairs(obj_band, batch.px[keep], n_bands)
    ys = batch.py[keep][order]
    n_obj = xs.size
    stops = np.concatenate([xs - half, xs + half])
    entered, expired, n_enter, n_exit = _strip_counts(obj_band, stops, batch)
    # Expand the ranges (all enters, then all exits), add each strip's own
    # left end — it lies below its stops — and sort by (strip, x): every
    # distinct pair is the left edge of one segment.
    owner, stop_idx = _ranges(
        np.concatenate([entered, n_obj + expired]), np.concatenate([n_enter, n_exit])
    )
    stop_strip = np.concatenate([owner - n_strips * (owner >= n_strips), np.arange(n_strips)])
    order, stop_x, new_seg = _sort_pairs(
        stop_strip, np.concatenate([stops[stop_idx], x1s]), n_strips
    )
    seg_first = np.flatnonzero(new_seg)
    strip_of = stop_strip[order[seg_first]]
    x_lo = stop_x[seg_first]
    # A segment runs to the next one's left edge, a strip's last one to x2.
    x_hi = np.empty(seg_first.size, dtype=float)
    x_hi[:-1] = x_lo[1:]
    x_hi[_last_of_run(strip_of)] = x2s
    # Active at a left edge e: enter <= e < exit.  In the band's x-order the
    # objects that have entered are a prefix and so are those that have
    # expired (exit >= enter), so the active ones are the contiguous index
    # range [#exits <= e, #enters <= e) of the (band, x)-sorted objects: the
    # strip's two counts plus its stops sorted at or before e (the strip's
    # left end, which sorts first, is not one).
    seg_end = np.append(seg_first, order.size)[1:]
    enters_seen = (
        _prefix_counts(order < n_enter.sum())[seg_end] - _prefix_counts(n_enter)[strip_of]
    )
    stops_seen = seg_end - 1 - _prefix_counts(n_enter + n_exit + 1)[strip_of]
    first_active = expired[strip_of] + stops_seen - enters_seen
    count = entered[strip_of] + enters_seen - first_active
    return _Segments(obj_band, ys, strip_band[strip_of], x_lo, x_hi, first_active, count)


def _event_codes(
    obj_band: np.ndarray, ys: np.ndarray, y1: np.ndarray, y2: np.ndarray, half: float
) -> Tuple[np.ndarray, ...]:
    """Phase B's per-(band, object) step: ``(active_below, enters_below,
    events_below, code, low_edge, coord_of_rank)``.

    What an object does to a Y-sweep of its band — is it active at the low
    edge, does it enter inside, does it exit inside — does not depend on the
    segment: it is asked once per (band, object), and prefix sums over the
    x-order count it for any range of objects.  ``code`` is every event's
    ``(rank << 1) | is_enter``, the event list object-major, enter before
    exit; ``low_edge`` the same for each band's low edge;
    ``coord_of_rank`` the doubles by rank."""
    n_bands = y1.size
    coords = np.column_stack([ys - half, ys + half])
    lo_of_obj = y1[obj_band]
    active_below = _prefix_counts((coords[:, 0] <= lo_of_obj) & (coords[:, 1] > lo_of_obj))
    # Events strictly inside (lo, hi): +1 at an enter, -1 at an exit.
    inside = (lo_of_obj[:, None] < coords) & (coords < y2[obj_band][:, None])
    enters_below = _prefix_counts(inside[:, 0])
    events_below = _prefix_counts(inside.ravel())[::2]
    event = np.flatnonzero(inside)
    # Rank the event coordinates once: per band ascending, equal doubles
    # sharing a rank (they fold into one net delta), the doubles themselves
    # kept by rank.  Each band's low edge is ranked with them — it lies below
    # them all — and opens every Y-sweep of the band.
    order, coord, distinct = _sort_pairs(
        np.concatenate([obj_band[event >> 1], np.arange(n_bands)]),
        np.concatenate([coords.ravel()[event], y1]),
        n_bands,
    )
    # (rank << 1) | is_enter, per event and then per band's low edge.
    code = np.empty(order.size, dtype=np.int64)
    code[order] = (np.cumsum(distinct) - 1) << 1
    code[: event.size] |= ~event & 1
    return (
        active_below, enters_below, events_below,
        code[: event.size], code[event.size :], coord[distinct],
    )


def _undecided(
    seg: _Segments, eligible: np.ndarray, y1: np.ndarray, y2: np.ndarray, half: float,
    threshold: float,
) -> Tuple[np.ndarray, ...]:
    """The segments of ``eligible`` the bracket leaves undecided, with what
    their sweep needs: ``(eligible, first_event, per_seg, count_lo,
    count_hi, low_edge, code, coord_of_rank)``."""
    active_below, enters_below, events_below, code, band_code, coord_of_rank = _event_codes(
        seg.obj_band, seg.ys, y1, y2, half
    )
    # A segment's active objects are a range [a, b) of the flat x-order, so
    # its counts at the low and at the high edge are differences of prefix
    # sums and its events are one range of the event list — the only thing
    # expanded per segment.
    a = seg.first_active[eligible]
    b = a + seg.count[eligible]
    count_lo = active_below[b] - active_below[a]
    per_seg = events_below[b] - events_below[a]
    enters_in = enters_below[b] - enters_below[a]
    # Bracket each segment before expanding it: over the band its count
    # never falls below ``cover`` (the low edge's count less every exit
    # inside) nor rises above the low edge's count plus every enter inside.
    # A segment that can never clear the threshold is dropped; one that
    # clears it everywhere sweeps as its low edge alone, at count ``cover``,
    # and so emits the one full-height run the oracle's merge emits.
    cover = count_lo - (per_seg - enters_in)
    undecided = count_lo + enters_in >= threshold
    eligible, a, count_lo, per_seg, enters_in, cover = (
        column[undecided] for column in (eligible, a, count_lo, per_seg, enters_in, cover)
    )
    whole = cover >= threshold
    count_lo[whole] = cover[whole]
    per_seg[whole] = 0
    enters_in[whole] = 0
    count_hi = count_lo + 2 * enters_in - per_seg
    low_edge = band_code[seg.band[eligible]]
    return (
        eligible, events_below[a], per_seg, count_lo, count_hi, low_edge, code, coord_of_rank,
    )


def refine_bands(batch: BandBatch, l: float, min_count: float) -> BandBatchResult:
    """Refine every band of ``batch``; see the module docstring for the math.

    Each step is a function of its own, so what one step builds and the
    next does not read is freed before the next runs."""
    half = l / 2.0
    threshold = min_count - _THRESHOLD_EPS
    y1, y2 = batch.y1, batch.y2

    # ---------------- phase A: segment construction, all bands at once ------
    seg = _segments(batch, half)
    # Empty segments are emitted full-height (only when the threshold is <= 0);
    # the global segment index is the emission-order key.
    full = np.flatnonzero(seg.count == 0) if threshold <= 0 else _EMPTY_I
    # Sweep-eligible segments: the active count may clear the threshold.
    eligible = np.flatnonzero((seg.count > 0) & (seg.count >= threshold))

    # ---------------- phase B: flat segmented Y-sweep ----------------
    eligible, first_event, per_seg, count_lo, count_hi, low_edge, code, coord_of_rank = (
        _undecided(seg, eligible, y1, y2, half, threshold)
    )
    # Expand and sweep the segments in consecutive runs of at most
    # RUN_EVENTS keys (a segment's events plus its low edge), a segment over
    # budget alone.  A segment's sweep restarts at its low edge, so a run may
    # end after any segment; emission is segment-major, so the runs'
    # rectangles concatenated in order are the one-run emission.
    ends = _run_ends(per_seg + 1, RUN_EVENTS)
    parts = [
        _sweep_run(
            eligible[run], first_event[run], per_seg[run], count_lo[run], count_hi[run],
            low_edge[run], code, coord_of_rank, seg, y2, threshold,
        )
        for run in (slice(start, end) for start, end in zip(np.append(0, ends[:-1]), ends))
    ]
    bounds = np.concatenate([part[0] for part in parts]) if parts else np.empty((0, 4))
    gid = np.concatenate([part[1] for part in parts]) if parts else _EMPTY_I

    # ---------------- phase C: merge with full-height emissions ----------------
    # Canonical emission order is segment-major (which encodes band and strip
    # order), y ascending within a segment; the swept rows already are.
    if full.size:
        full_band = seg.band[full]
        bounds = np.concatenate(
            [
                bounds,
                np.column_stack([seg.x_lo[full], y1[full_band], seg.x_hi[full], y2[full_band]]),
            ]
        )
        gid = np.concatenate([gid, full])
        order = np.lexsort((bounds[:, 1], gid))
        bounds, gid = bounds[order], gid[order]
    return BandBatchResult(bounds, seg.band[gid], seg.count.size, int(per_seg.sum()))


def _run_ends(keys: np.ndarray, budget: int) -> np.ndarray:
    """Where consecutive runs of ``keys`` end: greedy runs of total at most
    ``budget``, a single item over budget a run of its own."""
    total = np.cumsum(keys)
    ends, start = [], 0
    while start < total.size:
        before = total[start - 1] if start else 0
        start = max(int(np.searchsorted(total, before + budget, side="right")), start + 1)
        ends.append(start)
    return np.array(ends, dtype=np.int64)


def _sweep_run(
    eligible, first_event, per_seg, count_lo, count_hi, low_edge,
    code, coord_of_rank, seg: _Segments, y2, threshold,
) -> Tuple[np.ndarray, np.ndarray]:
    """Phase B's Y-sweep of the segments ``eligible`` (global indices):
    their dense ``(R, 4)`` rectangles, segment-major, and each one's
    segment.  Segment ``i``'s events are ``code[first_event[i]:][:per_seg[i]]``,
    its counts at the band's low and high edges ``count_lo[i]`` and
    ``count_hi[i]``, its low edge's code ``low_edge[i]``."""
    owner, event_idx = _ranges(first_event, per_seg)
    # One int64 per event, (((segment << bits) | rank) << 1) | is_enter:
    # sorting the values sorts by (segment, coordinate), nothing rides along.
    bits = int(coord_of_rank.size).bit_length()
    if eligible.size << (bits + 1) >= 1 << 63:
        raise OverflowError(
            f"{eligible.size} segments x {coord_of_rank.size} event coordinates "
            "do not fit an int64 key"
        )
    keys = np.concatenate([owner, np.arange(eligible.size)]) << (bits + 1)
    keys |= np.concatenate([code[event_idx], low_edge])
    keys.sort()
    # +1 at an enter, -1 at an exit; a segment's keys start with its low
    # edge, where the running count restarts: from the count at the previous
    # segment's high edge to this one's at its low edge.
    delta = ((keys & 1) << 1) - 1
    seg_start = _prefix_counts(per_seg + 1)[:-1]
    delta[seg_start] = count_lo
    delta[seg_start[1:]] -= count_hi[:-1]
    # Each distinct (segment, coordinate) group is the low end of one sweep
    # interval, whose count is the running count after the group's last key.
    group = keys >> 1
    last = np.flatnonzero(_last_of_run(group))
    dense = np.cumsum(delta)[last] >= threshold
    group = group[last]
    g_seg = group >> bits
    # Maximal dense runs within each segment (adjacent intervals share an
    # edge float exactly, which is what dense_segments_1d merges).
    seg_last = _last_of_run(g_seg)
    run_start = dense.copy()
    run_start[1:] &= seg_last[:-1] | ~dense[:-1]
    run_end = dense.copy()
    run_end[:-1] &= seg_last[:-1] | ~dense[1:]
    s_idx = np.flatnonzero(run_start)
    e_idx = np.flatnonzero(run_end)
    gid = eligible[g_seg[s_idx]]
    # A run ends at the next group's coordinate, or — in the segment's last
    # interval — at the band's high edge.
    rank_of = (1 << bits) - 1
    top = np.where(
        seg_last[e_idx],
        y2[seg.band[gid]],
        coord_of_rank[group[np.minimum(e_idx + 1, group.size - 1)] & rank_of],
    )
    bounds = np.column_stack(
        [seg.x_lo[gid], coord_of_rank[group[s_idx] & rank_of], seg.x_hi[gid], top]
    )
    return bounds, gid
