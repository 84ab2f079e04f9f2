"""The answer of ``range_positions_batch``, shared by every index.

A batch of range queries is answered as CSR columns ``(offsets, px, py)``:
rect ``r``'s positions are ``px[offsets[r]:offsets[r + 1]]`` and the same
slice of ``py``.  The order *within* a rect's slice is unspecified
(ascending ``y`` in practice); the band kernel ignores it (see
:class:`repro.sweep.band_sweep.BandBatch`).

An index answers in two steps: it finds candidate rows — every object that
can lie in some window at that window's timestamp, each row once — paying
its own page accesses, then hands them to :func:`deal_positions`, the one
routine that turns candidates into the answer.  Dealing is exact over any
such superset, so an index only has to be sound, not tight.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..motion.updates import Columns

__all__ = ["query_windows", "deal_positions"]


def query_windows(rects, qts) -> Tuple[np.ndarray, np.ndarray]:
    """The request side of the contract: ``rects`` as an ``(R, 4)`` float
    array of closed ``x1, y1, x2, y2`` windows and ``qts`` (a scalar or one
    timestamp per rect) as an ``(R,)`` array."""
    windows = np.asarray(rects, dtype=float).reshape(-1, 4)
    return windows, np.broadcast_to(np.asarray(qts, dtype=float), windows.shape[:1])


def deal_positions(
    motions: Columns, windows: np.ndarray, qts: np.ndarray, horizon: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate motions -> ``(offsets, px, py)``: rect ``r`` gets the
    positions at ``qts[r]`` that lie in the closed window ``windows[r]``, of
    the motions whose prediction window ``[t_ref, t_ref + horizon]`` covers
    ``qts[r]`` — the motions the density histogram counts there.

    Every motion is extrapolated once per *distinct* timestamp, with the
    ``x + (t - t_ref) * vx`` of :meth:`Columns.positions_at`, and the
    positions are sorted by ``y``.  A window's closed ``y`` range is then
    one contiguous run of that order (two ``searchsorted`` calls); the runs
    are expanded rect by rect and the closed ``x`` test keeps the hits, so
    the columns come out rect-major without a regrouping sort.
    """
    n_rects, n = windows.shape[0], len(motions)
    offsets = np.zeros(n_rects + 1, dtype=np.int64)
    if n_rects == 0 or n == 0:
        return offsets, np.empty(0, dtype=float), np.empty(0, dtype=float)
    times, time_of_rect = np.unique(qts, return_inverse=True)
    xs = np.empty((times.size, n))
    ys = np.empty((times.size, n))
    lo = np.empty(n_rects, dtype=np.int64)
    hi = np.empty(n_rects, dtype=np.int64)
    for k, qt in enumerate(times):
        x, y = motions.positions_at(qt)
        # A motion past its prediction window is predicted nowhere: an
        # infinite y sorts after every window's closed y range.
        y[motions.t_ref + horizon < qt] = np.inf
        order = np.argsort(y, kind="stable")
        xs[k], ys[k] = x[order], y[order]
        mine = np.flatnonzero(time_of_rect == k)
        # Runs index the flattened (time, rank) grid.
        lo[mine] = k * n + np.searchsorted(ys[k], windows[mine, 1], side="left")
        hi[mine] = k * n + np.searchsorted(ys[k], windows[mine, 3], side="right")
    span = np.maximum(hi - lo, 0)
    ends = np.cumsum(span)
    slot = np.arange(ends[-1]) + np.repeat(lo - (ends - span), span)
    x = xs.ravel()[slot]
    hit = np.flatnonzero(
        (np.repeat(windows[:, 0], span) <= x) & (x <= np.repeat(windows[:, 2], span))
    )
    offsets[1:] = np.searchsorted(hit, ends)
    return offsets, x[hit], ys.ravel()[slot[hit]]
