"""Plane-sweep refinement (Section 5.3, Algorithms 2-3).

Given a rectangle ``cell`` to refine and the positions of every object that
can influence a point in the cell (i.e. all objects within the ``l/2``
expansion of the cell), the sweep finds the exact dense sub-rectangles.

The point density is piecewise constant: by the half-open square semantics,
an object at ``ox`` belongs to the l-square centred at ``cx`` iff
``cx ∈ [ox - l/2, ox + l/2)`` (dually for y).  So along X the set ``L_x`` of
objects inside the *l-band* only changes at the finitely many *stopping
events* ``ox ± l/2`` (Lemma 1); within ``L_x``, the set ``L_y`` inside the
sliding l-square only changes at events ``oy ± l/2`` (Lemma 2).  Sweeping
both axes therefore yields the exact answer as a union of half-open
rectangles ``[x_i, x_{i+1}) x [y_j, y_{j+1})``.

The same routine doubles as the library's brute-force oracle when handed the
whole domain and every object (see :mod:`repro.baselines.bruteforce`).

This module is the *oracle* rendering: plain event loops that follow the
paper's algorithms line by line, slow and easy to audit.  The baselines and
the test suites use it; production refinement runs the band kernel in
:mod:`repro.sweep.band_sweep`, which the property suite in
``tests/test_perf_paths.py`` holds equal to this module — ``==`` on every
emitted bound strip by strip, zero symmetric difference over the domain.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Tuple

import numpy as np

from ..core.errors import InvalidParameterError
from ..core.geometry import Rect, merge_touching_intervals
from ..core.regions import RegionSet

__all__ = ["refine_cell", "dense_segments_1d"]

# Dense test: integer count vs float rho*l^2 — nudge so equality means dense.
_THRESHOLD_EPS = 1e-9


def dense_segments_1d(
    coords: np.ndarray,
    half: float,
    lo: float,
    hi: float,
    min_count: float,
) -> List[Tuple[float, float]]:
    """Dense half-open segments of a 1-D sweep over ``[lo, hi)``.

    ``coords`` are object coordinates on the swept axis; a centre ``c`` covers
    an object at ``o`` iff ``c ∈ [o - half, o + half)``.  Returns the merged
    half-open segments where the cover count is at least ``min_count``.

    This is Algorithm 3 (SweepY) in isolation, reused by the X-sweep driver
    below.
    """
    if hi <= lo:
        return []
    threshold = min_count - _THRESHOLD_EPS
    if len(coords) == 0:
        return [(lo, hi)] if 0 >= threshold else []
    coords = np.asarray(coords, dtype=float)
    enters = coords - half
    exits = coords + half
    # Count already active at the left boundary.
    count = int(np.count_nonzero((enters <= lo) & (exits > lo)))
    # Event list strictly inside (lo, hi): +1 at enter, -1 at exit.
    events: List[Tuple[float, int]] = []
    for e in enters:
        if lo < e < hi:
            events.append((float(e), +1))
    for e in exits:
        if lo < e < hi:
            events.append((float(e), -1))
    events.sort()
    segments: List[Tuple[float, float]] = []
    prev = lo
    idx = 0
    n = len(events)
    while idx <= n:
        if idx == n:
            nxt = hi
        else:
            nxt = events[idx][0]
        if nxt > prev and count >= threshold:
            segments.append((prev, nxt))
        if idx == n:
            break
        # Apply every event at this coordinate before moving on.
        here = nxt
        while idx < n and events[idx][0] == here:
            count += events[idx][1]
            idx += 1
        prev = here
    return merge_touching_intervals(segments)


def refine_cell(
    positions: Sequence[Tuple[float, float]],
    cell: Rect,
    l: float,
    min_count: float,
) -> RegionSet:
    """Exact dense regions inside ``cell`` (Algorithm 2, RefineQuery).

    Args:
        positions: ``(x, y)`` of every object within the ``l/2`` expansion of
            ``cell`` at query time (a superset is harmless — objects that
            cannot influence the cell never enter any band).
        cell: the half-open rectangle to refine.
        l: neighborhood edge length.
        min_count: objects required for density (``rho * l**2``).

    Returns:
        The exact dense region inside ``cell`` as pairwise-disjoint
        half-open rectangles (``disjoint=True``): the x-segments are
        disjoint, and within one segment :func:`dense_segments_1d` emits
        merged, hence disjoint, y-runs.
    """
    if l <= 0:
        raise InvalidParameterError(f"l must be positive, got {l}")
    if cell.is_empty():
        return RegionSet()
    half = l / 2.0
    threshold = min_count - _THRESHOLD_EPS
    if not positions:
        return RegionSet([cell], disjoint=True) if 0 >= threshold else RegionSet()

    pos = np.asarray(positions, dtype=float)
    xs = pos[:, 0]
    ys = pos[:, 1]
    enters = xs - half
    exits = xs + half

    # Only objects whose y-range can overlap the cell's l-band matter (the
    # band spans the cell height plus l/2 on each side).  This is a cheap
    # superset filter; exactness comes from the y-sweep.
    keep = (ys - half < cell.y2 + half) & (ys + half > cell.y1 - half)
    xs, ys, enters, exits = xs[keep], ys[keep], enters[keep], exits[keep]

    # X breakpoints: cell edges plus every stopping event strictly inside.
    breaks = {cell.x1, cell.x2}
    for e in enters:
        if cell.x1 < e < cell.x2:
            breaks.add(float(e))
    for e in exits:
        if cell.x1 < e < cell.x2:
            breaks.add(float(e))
    xs_breaks = sorted(breaks)

    order_by_enter = np.argsort(enters, kind="stable")
    n = len(xs)
    add_ptr = 0
    active_exit_heap: List[Tuple[float, int]] = []  # (exit, object index)
    active = set()

    out: List[Rect] = []
    for seg_idx in range(len(xs_breaks) - 1):
        x_lo = xs_breaks[seg_idx]
        x_hi = xs_breaks[seg_idx + 1]
        # Admit objects whose band interval has started (enter <= x_lo).
        while add_ptr < n and enters[order_by_enter[add_ptr]] <= x_lo:
            obj = int(order_by_enter[add_ptr])
            add_ptr += 1
            if exits[obj] > x_lo:
                active.add(obj)
                heapq.heappush(active_exit_heap, (float(exits[obj]), obj))
        # Expire objects whose interval has ended (exit <= x_lo).
        while active_exit_heap and active_exit_heap[0][0] <= x_lo:
            _, obj = heapq.heappop(active_exit_heap)
            active.discard(obj)
        if not active:
            if 0 >= threshold:
                out.append(Rect(x_lo, cell.y1, x_hi, cell.y2))
            continue
        if len(active) < threshold:
            continue  # the whole band holds fewer objects than any square needs
        band_ys = ys[list(active)]
        for y_lo, y_hi in dense_segments_1d(
            band_ys, half, cell.y1, cell.y2, min_count
        ):
            out.append(Rect(x_lo, y_lo, x_hi, y_hi))
    return RegionSet(out, disjoint=True)
