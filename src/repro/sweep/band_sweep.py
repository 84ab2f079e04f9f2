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
* the X-breakpoints of every strip come from a single sorted/unique event
  array per band, and the active-band count at each segment's left edge is
  two ``searchsorted`` subtractions instead of pointer walks;
* the per-segment Y-sweeps of *all* bands run as one flat segmented
  sort+cumsum: the (segment, object) incidence pairs are built per band,
  then every downstream step — boundary counts, in-range events, net deltas,
  running counts, dense-run extraction — operates on the concatenated arrays
  grouped by a global segment id.

Equality with the oracle.  Each strip's breakpoint set equals
``refine_cell``'s (the same float events restricted to the same strict
interior), the active count at a left edge ``x`` equals the oracle's
admit/expire walk (``|{enter <= x < exit}| = |{enter <= x}| - |{exit <= x}|``
because ``exit = enter + l``), and the flat Y-sweep performs the same
comparisons on the same floats as :func:`dense_segments_1d` segment by
segment (that routine depends only on the multiset of active y's).  Fetching
a whole band's objects is harmless for any strip in it: an object outside a
strip's ``l/2`` expansion contributes no breakpoint strictly inside the strip
and is never active there.  The property suite in ``tests/test_perf_paths.py``
holds the kernel to the oracle — every emitted bound compared with ``==``
against sequential per-strip :func:`refine_cell` calls, and zero symmetric
difference against whole-domain brute force.

Chunk invariance.  Every step is local to one band (phase A) or one segment
(phase B), so refining bands in chunks — e.g. across a worker pool — and
concatenating the outputs is elementwise identical to one inline call.
:func:`merge_band_results` is that concatenation.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence

import numpy as np

__all__ = [
    "BandTask",
    "BandBatchResult",
    "refine_bands",
    "merge_band_results",
]

# Dense test: integer count vs float rho*l^2 — nudge so equality means dense.
_THRESHOLD_EPS = 1e-9

_EMPTY_F = np.empty(0, dtype=float)
_EMPTY_I = np.empty(0, dtype=np.int64)


class BandTask(NamedTuple):
    """One l-band to refine: a row of fused strips plus its fetched objects.

    ``strips_x1``/``strips_x2`` are the half-open x-extents of the row's
    maximal candidate runs (ascending, pairwise disjoint); ``y1``/``y2`` the
    row's y-extent; ``xs``/``ys`` the positions (already domain-filtered) of
    every object fetched for the band's ``l/2`` expansion.  All arrays are
    plain float64 ndarrays, so a task pickles cheaply into a worker process.
    """

    y1: float
    y2: float
    strips_x1: np.ndarray
    strips_x2: np.ndarray
    xs: np.ndarray
    ys: np.ndarray


class BandBatchResult(NamedTuple):
    """Refinement output for a batch of bands.

    ``bounds`` is the ``(R, 4)`` array of dense rectangles in canonical
    emission order (band-major, strip-major, segment-minor, y ascending) —
    exactly the order sequential per-strip :func:`refine_cell` calls emit.
    ``task_of_rect`` maps each rectangle to its originating task index.
    ``max_active`` is each band's maximum active-band count over all sweep
    segments (the ρ-monotonic skip bound: no l-square centred in the band's
    strips can ever hold more than this many objects).  ``segments`` counts
    X-segments examined across the batch.
    """

    bounds: np.ndarray
    task_of_rect: np.ndarray
    max_active: np.ndarray
    segments: int


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(counts.size, dtype=np.int64)
    if counts.size > 1:
        np.cumsum(counts[:-1], out=out[1:])
    return out


def refine_bands(
    tasks: Sequence[BandTask], l: float, min_count: float
) -> BandBatchResult:
    """Refine every band in ``tasks``; see the module docstring for the math."""
    half = l / 2.0
    threshold = min_count - _THRESHOLD_EPS
    n_tasks = len(tasks)
    max_active = np.zeros(n_tasks, dtype=np.int64)
    if n_tasks == 0:
        return BandBatchResult(
            np.empty((0, 4), dtype=float), _EMPTY_I.copy(), max_active, 0
        )

    # ---------------- phase A: per-band segment construction ----------------
    # Sweep-eligible segments (active count may clear the threshold):
    seg_x_lo: List[np.ndarray] = []
    seg_x_hi: List[np.ndarray] = []
    seg_y1: List[np.ndarray] = []
    seg_y2: List[np.ndarray] = []
    seg_gid: List[np.ndarray] = []  # global segment ids (emission order keys)
    seg_task: List[np.ndarray] = []
    # (segment, object) incidence pairs for the flat Y-sweep; segments are
    # referenced by *eligible-segment* index (assigned after concatenation).
    pair_count: List[int] = []
    pair_obj_enter: List[np.ndarray] = []
    pair_obj_exit: List[np.ndarray] = []
    pair_local_seg: List[np.ndarray] = []
    # Empty segments emitted full-height (only when the threshold is <= 0):
    full_x_lo: List[np.ndarray] = []
    full_x_hi: List[np.ndarray] = []
    full_y1: List[np.ndarray] = []
    full_y2: List[np.ndarray] = []
    full_gid: List[np.ndarray] = []
    full_task: List[np.ndarray] = []

    gid_base = 0
    for t_idx, task in enumerate(tasks):
        x1s = np.asarray(task.strips_x1, dtype=float)
        x2s = np.asarray(task.strips_x2, dtype=float)
        n_strips = x1s.size
        if n_strips == 0:
            continue
        xs = np.asarray(task.xs, dtype=float)
        ys = np.asarray(task.ys, dtype=float)
        # Only objects whose y-range can overlap the band matter (the band's
        # y-extent is shared by every strip); exactness comes from the Y-sweep.
        keep = (ys - half < task.y2 + half) & (ys + half > task.y1 - half)
        xs = xs[keep]
        ys = ys[keep]
        enters = xs - half
        exits = xs + half
        events = np.unique(np.concatenate([enters, exits]))
        # Breakpoints strictly inside each strip: (x1, x2) ∩ events.
        lo_idx = np.searchsorted(events, x1s, side="right")
        hi_idx = np.searchsorted(events, x2s, side="left")
        inner = hi_idx - lo_idx
        nseg = inner + 1
        total = int(nseg.sum())
        strip_of = np.repeat(np.arange(n_strips), nseg)
        within = np.arange(total, dtype=np.int64) - _exclusive_cumsum(nseg)[strip_of]
        if events.size:
            ev_idx = lo_idx[strip_of] + within
            x_lo = np.where(
                within == 0, x1s[strip_of], events[np.maximum(ev_idx - 1, 0)]
            )
            x_hi = np.where(
                within == inner[strip_of],
                x2s[strip_of],
                events[np.minimum(ev_idx, events.size - 1)],
            )
        else:
            x_lo = x1s[strip_of]
            x_hi = x2s[strip_of]
        # Active count at each left edge: enter <= x < exit, and because
        # every interval has identical width l, |{exit <= x}| counts exactly
        # the entered-and-expired objects.
        sorted_enters = np.sort(enters)
        sorted_exits = np.sort(exits)
        cnt = np.searchsorted(sorted_enters, x_lo, side="right") - np.searchsorted(
            sorted_exits, x_lo, side="right"
        )
        if cnt.size:
            max_active[t_idx] = int(cnt.max())
        gids = gid_base + np.arange(total, dtype=np.int64)
        gid_base += total

        empty = cnt == 0
        if threshold <= 0 and bool(empty.any()):
            e = np.flatnonzero(empty)
            full_x_lo.append(x_lo[e])
            full_x_hi.append(x_hi[e])
            full_y1.append(np.full(e.size, task.y1))
            full_y2.append(np.full(e.size, task.y2))
            full_gid.append(gids[e])
            full_task.append(np.full(e.size, t_idx, dtype=np.int64))

        eligible = np.flatnonzero((~empty) & (cnt >= threshold))
        if eligible.size == 0:
            continue
        el_lo = x_lo[eligible]
        # Incidence: object o is active on eligible segment s iff
        # enter_o <= x_lo_s < exit_o (the oracle's admit/expire rule).
        act = (enters[None, :] <= el_lo[:, None]) & (el_lo[:, None] < exits[None, :])
        si, oi = np.nonzero(act)
        seg_x_lo.append(el_lo)
        seg_x_hi.append(x_hi[eligible])
        seg_y1.append(np.full(eligible.size, task.y1))
        seg_y2.append(np.full(eligible.size, task.y2))
        seg_gid.append(gids[eligible])
        seg_task.append(np.full(eligible.size, t_idx, dtype=np.int64))
        pair_local_seg.append(si.astype(np.int64))
        pair_obj_enter.append(ys[oi] - half)
        pair_obj_exit.append(ys[oi] + half)
        pair_count.append(eligible.size)

    segments_total = gid_base

    # ---------------- phase B: flat segmented Y-sweep ----------------
    if seg_x_lo:
        sx_lo = np.concatenate(seg_x_lo)
        sx_hi = np.concatenate(seg_x_hi)
        sy1 = np.concatenate(seg_y1)
        sy2 = np.concatenate(seg_y2)
        sgid = np.concatenate(seg_gid)
        stask = np.concatenate(seg_task)
        n_eseg = sx_lo.size
        # Re-base each band's local segment indices into the flat space.
        offsets = _exclusive_cumsum(np.asarray(pair_count, dtype=np.int64))
        p_seg = np.concatenate(
            [ls + off for ls, off in zip(pair_local_seg, offsets)]
        )
        p_enter = np.concatenate(pair_obj_enter)
        p_exit = np.concatenate(pair_obj_exit)

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
        pos_per_seg = m_per_seg + 1
        n_pos = int(pos_per_seg.sum())
        seg_of_pos = np.repeat(np.arange(n_eseg), pos_per_seg)
        within = (
            np.arange(n_pos, dtype=np.int64) - _exclusive_cumsum(pos_per_seg)[seg_of_pos]
        )
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
        sweep_gid = sgid[run_seg]
        sweep_task = stask[run_seg]
    else:
        sweep_bounds = np.empty((0, 4), dtype=float)
        sweep_gid = _EMPTY_I
        sweep_task = _EMPTY_I

    # ---------------- phase C: merge with full-height emissions ----------------
    if full_x_lo:
        fb = np.column_stack(
            [
                np.concatenate(full_x_lo),
                np.concatenate(full_y1),
                np.concatenate(full_x_hi),
                np.concatenate(full_y2),
            ]
        )
        all_bounds = np.concatenate([sweep_bounds, fb])
        all_gid = np.concatenate([sweep_gid, np.concatenate(full_gid)])
        all_task = np.concatenate([sweep_task, np.concatenate(full_task)])
    else:
        all_bounds = sweep_bounds
        all_gid = sweep_gid
        all_task = sweep_task
    if all_gid.size:
        # Canonical emission order: segment-major (which encodes band and
        # strip order), y ascending within a segment.
        order = np.lexsort((all_bounds[:, 1], all_gid))
        all_bounds = all_bounds[order]
        all_task = all_task[order]
    return BandBatchResult(all_bounds, all_task, max_active, segments_total)


def merge_band_results(
    chunks: Sequence[BandBatchResult], chunk_task_offsets: Sequence[int]
) -> BandBatchResult:
    """Concatenate per-chunk results back into whole-batch order.

    ``chunk_task_offsets[k]`` is the index of chunk ``k``'s first task in the
    original task list.  Because every kernel step is band- or segment-local,
    this merge is elementwise identical to refining the whole batch inline.
    """
    if not chunks:
        return BandBatchResult(
            np.empty((0, 4), dtype=float), _EMPTY_I.copy(), _EMPTY_I.copy(), 0
        )
    bounds = np.concatenate([c.bounds for c in chunks])
    task_of_rect = np.concatenate(
        [c.task_of_rect + off for c, off in zip(chunks, chunk_task_offsets)]
    )
    max_active = np.concatenate([c.max_active for c in chunks])
    segments = sum(c.segments for c in chunks)
    return BandBatchResult(bounds, task_of_rect, max_active, segments)


def _refine_bands_worker(payload):
    """Top-level pool entry point (must be picklable by name)."""
    tasks, l, min_count = payload
    return refine_bands([BandTask(*t) for t in tasks], l, min_count)
