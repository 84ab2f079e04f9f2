"""The answer format of ``range_positions_batch``, shared by every index.

A batch of range queries is answered as CSR columns ``(offsets, px, py)``:
rect ``r``'s positions are ``px[offsets[r]:offsets[r + 1]]`` and the same
slice of ``py``, in the order that rect's own traversal visits them.  The
band kernel consumes the columns as they are (see
:class:`repro.sweep.band_sweep.BandBatch`).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

__all__ = ["query_windows", "pack_positions"]


def query_windows(rects, qts) -> Tuple[np.ndarray, np.ndarray]:
    """The request side of the contract: ``rects`` as an ``(R, 4)`` float
    array of closed ``x1, y1, x2, y2`` windows and ``qts`` (a scalar or one
    timestamp per rect) as an ``(R,)`` array."""
    windows = np.asarray(rects, dtype=float).reshape(-1, 4)
    return windows, np.broadcast_to(np.asarray(qts, dtype=float), windows.shape[:1])


def pack_positions(
    rect_ids: List[np.ndarray], xs: List[np.ndarray], ys: List[np.ndarray], n_rects: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hit lists in visit order -> ``(offsets, px, py)``.

    ``rect_ids[k]``, ``xs[k]`` and ``ys[k]`` are aligned: the positions found
    at visit ``k``, each tagged with the rect it answers.  One stable sort by
    rect id groups the hits per rect and keeps every rect's visit order.
    """
    offsets = np.zeros(n_rects + 1, dtype=np.int64)
    if not rect_ids:
        return offsets, np.empty(0, dtype=float), np.empty(0, dtype=float)
    rect_of_hit = np.concatenate(rect_ids)
    order = np.argsort(rect_of_hit, kind="stable")
    np.cumsum(np.bincount(rect_of_hit, minlength=n_rects), out=offsets[1:])
    return offsets, np.concatenate(xs)[order], np.concatenate(ys)[order]
