"""Interval bounds of a 2-D Chebyshev expansion (Section 6.3).

To decide whether a subregion can contain dense points, the PA method bounds
``f_hat(x, y) = sum a_ij T_i(x) T_j(y)`` over a normalized box
``[x1, x2] x [y1, y2]``: each term is bounded by interval arithmetic from
the exact 1-D bounds of ``T_i`` (cosine extrema, see
:func:`repro.chebyshev.cheb1d.interval_bounds_all`), and the term bounds are
summed.  The result brackets the true range — possibly loosely, never
incorrectly — which is exactly what branch-and-bound needs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .cheb1d import interval_bounds_all

__all__ = ["bound_expansion", "frame_bounds"]


def bound_expansion(coeffs: np.ndarray, x1, x2, y1, y2) -> Tuple[np.ndarray, np.ndarray]:
    """``(lower, upper)`` bracket of expansions over boxes, vectorised.

    ``coeffs`` is one ``(k+1, k+1)`` expansion or a ``(..., k+1, k+1)``
    stack; the box bounds are scalars (one geometry for the whole stack) or
    arrays broadcastable against the stack's leading shape.  The bracket is
    sound: ``lower <= f_hat(x, y) <= upper`` for every point of each box.
    Over the whole frame ``[-1, 1]^2`` it collapses to ``a_00 ± Σ|a_ij|``.
    """
    k = coeffs.shape[-1] - 1
    lx, hx = interval_bounds_all(k, x1, x2)
    ly, hy = interval_bounds_all(k, y1, y2)
    lx, hx = lx[..., :, None], hx[..., :, None]
    ly, hy = ly[..., None, :], hy[..., None, :]
    # Interval product [lx, hx] * [ly, hy]: extrema among the four corners.
    corners = (lx * ly, lx * hy, hx * ly, hx * hy)
    t_lo = np.minimum.reduce(corners)
    t_hi = np.maximum.reduce(corners)
    # A signed coefficient swaps which product bound it takes.
    pos = np.maximum(coeffs, 0.0)
    neg = np.minimum(coeffs, 0.0)
    return (
        (pos * t_lo + neg * t_hi).sum(axis=(-2, -1)),
        (pos * t_hi + neg * t_lo).sum(axis=(-2, -1)),
    )


def frame_bounds(coeffs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`bound_expansion` over the whole frame ``[-1, 1]^2``, in its
    closed form ``a_00 ∓ Σ|a_ij|`` (the other terms).

    There every ``T_i`` with ``i >= 1`` spans ``[-1, 1]`` and ``T_0`` is
    1, so each term's interval product is ``±|a_ij|`` and the constant term
    is ``a_00`` itself: the same term arrays, summed the same way, without
    the interval arithmetic — the floats equal :func:`bound_expansion`'s.
    """
    upper = np.abs(coeffs)
    upper[..., 0, 0] = coeffs[..., 0, 0]
    lower = -upper
    lower[..., 0, 0] = coeffs[..., 0, 0]
    return lower.sum(axis=(-2, -1)), upper.sum(axis=(-2, -1))
