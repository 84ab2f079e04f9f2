"""Closed-form delta coefficients for indicator-square density increments.

When an object (predicted at normalized position inside a polynomial cell)
is inserted, every point whose l-square contains it gains ``1/l^2`` density;
the set of such points is an axis-aligned square, clipped to the cell.  The
density change is therefore ``delta(x, y) = height * 1[(x, y) in R]`` for a
rectangle ``R = [x1, x2] x [y1, y2]`` in normalized coordinates, and its
Chebyshev coefficients factor into 1-D weighted integrals (Lemma 4):

    a_ij^delta = (c_ij / pi^2) * height * A_i(x1, x2) * A_j(y1, y2)

with ``A_i`` from :func:`repro.chebyshev.cheb1d.weighted_integrals`.
Linearity of the coefficient functional (Lemma 3) lets the maintainer simply
add these to (insert) or subtract them from (delete) the running
coefficients.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.errors import InvalidParameterError
from ..motion.updates import Workspace
from .cheb1d import weighted_integrals
from .cheb2d import coefficient_count, normalization_factors, total_degree_mask

__all__ = [
    "delta_coefficients",
    "delta_coefficients_batch",
    "strip_integrals",
    "retained_offsets",
    "separable_deltas",
]


def delta_coefficients(
    k: int, x1: float, x2: float, y1: float, y2: float, height: float
) -> np.ndarray:
    """Coefficients of ``height * 1[[x1,x2] x [y1,y2]]``; shape ``(k+1, k+1)``.

    Rectangle bounds are in normalized coordinates and are clipped to
    ``[-1, 1]``; an empty rectangle yields all zeros.  Entries with
    ``i + j > k`` are zero per the total-degree truncation.
    """
    ax = weighted_integrals(k, x1, x2)
    ay = weighted_integrals(k, y1, y2)
    coeffs = normalization_factors(k) / np.pi**2 * height * np.outer(ax, ay)
    coeffs[~total_degree_mask(k)] = 0.0
    return coeffs


def strip_integrals(
    k: int,
    z1: np.ndarray,
    z2: np.ndarray,
    work: Optional[Workspace] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Normalised 1-D integrals ``c_i * A_i(z1, z2)`` of ``S`` strips.

    Returns shape ``(k+1, S)``, written into ``out`` if given.  Bounds are
    clipped to ``[-1, 1]``; an empty strip yields zeros.  The axis half
    ``c_i`` (1 for ``i = 0``, else 2) of Theorem 1's factor ``c_ij = c_i
    c_j`` is folded in here: scaling by a power of two is exact, so the
    product of an x and a y strip equals ``c_ij A_i A_j`` bit for bit
    whatever the grouping.  The temporaries come from ``work`` (the PA
    maintainer's passes) or from a workspace of their own.

    ``sin(i * arccos(z))`` comes from the Chebyshev recurrence
    ``s_i = 2 z s_{i-1} - s_{i-2}`` seeded with ``sqrt(1 - z^2)`` — for the
    small ``k`` in play this agrees with direct ``np.sin`` to a few ulps
    while skipping ~k transcendental evaluations per bound.
    """
    z1, z2 = np.asarray(z1, dtype=float), np.asarray(z2, dtype=float)
    if z1.shape != z2.shape:
        raise InvalidParameterError("strip bound arrays must share a shape")
    work = Workspace() if work is None else work
    s = z1.shape[0]
    if out is None:
        out = work((k + 1, s))
    with work.frame():
        # np.minimum(np.maximum()) is np.clip without its per-call
        # overhead, which the PA maintainer pays once per pass.
        z1, z2 = (np.maximum(z, -1.0, out=work(s)) for z in (z1, z2))
        np.minimum(z1, 1.0, out=z1)
        np.minimum(z2, 1.0, out=z2)
        tmp = work(s)
        # arccos(z1) is the larger angle
        np.subtract(np.arccos(z1, out=out[0]), np.arccos(z2, out=tmp), out=out[0])
        if k >= 1:
            cur1, cur2, prev1, prev2 = (work(s) for _ in range(4))
            # sin(theta) = sqrt(1 - z^2), theta in [0, pi]
            for z, cur in ((z1, cur1), (z2, cur2)):
                np.sqrt(np.subtract(1.0, np.multiply(z, z, out=cur), out=cur), out=cur)
            prev1.fill(0.0)
            prev2.fill(0.0)
            np.subtract(cur1, cur2, out=out[1])
            for i in range(2, k + 1):
                # cur, prev = 2 z cur - prev, cur: the new value overwrites prev.
                for z, cur, prev in ((z1, cur1, prev1), (z2, cur2, prev2)):
                    np.subtract(
                        np.multiply(np.multiply(2.0, z, out=tmp), cur, out=tmp), prev, out=prev
                    )
                cur1, prev1, cur2, prev2 = prev1, cur1, prev2, cur2
                np.divide(np.subtract(cur1, cur2, out=out[i]), i, out=out[i])
            out[1:] *= 2.0
        out[:, z2 <= z1] = 0.0
    return out


def retained_offsets(k: int) -> np.ndarray:
    """Flat positions ``i * (k+1) + j`` of the retained coefficients
    (``i + j <= k``) inside a ``(k+1, k+1)`` block, in row order."""
    return np.flatnonzero(total_degree_mask(k).reshape(-1))


def separable_deltas(ax: np.ndarray, ay: np.ndarray, height) -> np.ndarray:
    """Retained delta coefficients of ``M`` rectangles, coefficient-major.

    ``ax`` and ``ay`` are the rectangles' :func:`strip_integrals` columns,
    shape ``(k+1, M)`` each; ``height`` is a scalar or an ``(M,)`` array.
    Returns shape ``((k+1)(k+2)/2, M)`` with rows in
    :func:`retained_offsets` order, so every multiply writes whole
    contiguous rows and the ``i + j > k`` products are never formed.
    """
    k = ax.shape[0] - 1
    out = np.empty((coefficient_count(k), ax.shape[1]), dtype=float)
    row = 0
    for i in range(k + 1):
        np.multiply(ax[i], ay[: k + 1 - i], out=out[row : row + k + 1 - i])
        row += k + 1 - i
    out *= np.asarray(height, dtype=float) / np.pi**2
    return out


def delta_coefficients_batch(
    k: int,
    x1: np.ndarray,
    x2: np.ndarray,
    y1: np.ndarray,
    y2: np.ndarray,
    height,
) -> np.ndarray:
    """Vectorised :func:`delta_coefficients` over ``M`` rectangles.

    Returns shape ``(M, k+1, k+1)``: the dense rendering of the strip
    kernel the PA maintainer scatters from (:func:`strip_integrals` per
    axis, :func:`separable_deltas` per rectangle).  ``height`` may be a
    scalar shared by every rectangle or an ``(M,)`` array of per-rectangle
    heights.
    """
    ax = strip_integrals(k, x1, x2)
    ay = strip_integrals(k, y1, y2)
    m = ax.shape[1]
    if ay.shape[1] != m:
        raise InvalidParameterError("rectangle bound arrays must share a shape")
    if np.ndim(height) == 1 and np.shape(height)[0] != m:
        raise InvalidParameterError(
            f"height array has {np.shape(height)[0]} entries for {m} rectangles"
        )
    coeffs = np.zeros((m, (k + 1) * (k + 1)))
    coeffs[:, retained_offsets(k)] = separable_deltas(ax, ay, height).T
    return coeffs.reshape(m, k + 1, k + 1)
