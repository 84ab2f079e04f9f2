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
    z: np.ndarray,
    work: Optional[Workspace] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Normalised 1-D integrals ``c_i * A_i(z[0], z[1])`` of ``S`` strips.

    ``z`` is the ``(2, S)`` block of the strips' lower and upper bounds,
    and the function's scratch: it is clipped to ``[-1, 1]`` in place (then
    doubled for the recurrence).  An empty strip yields zeros.  Returns
    shape ``(k+1, S)``, written into ``out`` if given.  The axis half
    ``c_i`` (1 for ``i = 0``, else 2) of Theorem 1's factor ``c_ij = c_i
    c_j`` is folded in here: scaling by a power of two is exact, so the
    product of an x and a y strip equals ``c_ij A_i A_j`` bit for bit
    whatever the grouping.  The temporaries come from ``work``
    (the PA maintainer's passes) or from a workspace of their own.

    ``sin(i * arccos(z))`` comes from the Chebyshev recurrence
    ``s_i = 2 z s_{i-1} - s_{i-2}`` seeded with ``sqrt(1 - z^2)`` — for the
    small ``k`` in play this agrees with direct ``np.sin`` to a few ulps
    while skipping ~k transcendental evaluations per bound.  Both bounds
    run the recurrence as one ``(2, S)`` block: every step is elementwise,
    so each row gets the floats a recurrence over that bound alone would.
    """
    if z.ndim != 2 or z.shape[0] != 2:
        raise InvalidParameterError("strip bounds must be a (2, S) block")
    work = Workspace() if work is None else work
    s = z.shape[1]
    if out is None:
        out = work((k + 1, s))
    with work.frame():
        # np.minimum(np.maximum()) is np.clip without its per-call
        # overhead, which the PA maintainer pays once per pass.
        np.minimum(np.maximum(z, -1.0, out=z), 1.0, out=z)
        empty = z[1] <= z[0]
        # s_i of both bounds, the last three orders in turn
        sines = work((3, 2, s))
        # arccos(z[0]) is the larger angle
        np.arccos(z, out=sines[0])
        np.subtract(sines[0, 0], sines[0, 1], out=out[0])
        if k >= 1:
            # sin(theta) = sqrt(1 - z^2), theta in [0, pi]
            s1 = sines[1]
            np.sqrt(np.subtract(1.0, np.multiply(z, z, out=s1), out=s1), out=s1)
            np.subtract(s1[0], s1[1], out=out[1])
            z *= 2.0  # exact: the recurrence's 2 z
            for i in range(2, k + 1):
                # s_i = 2 z s_{i-1} - s_{i-2}; s_0 = 0, and x - 0.0 is x
                si = np.multiply(z, sines[(i - 1) % 3], out=sines[i % 3])
                if i > 2:
                    si -= sines[(i - 2) % 3]
                np.subtract(si[0], si[1], out=out[i])
            out[2:] /= np.arange(2.0, k + 1.0)[:, None]
            out[1:] *= 2.0
        np.copyto(out, 0.0, where=empty)
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
    bounds = [np.asarray(bound, dtype=float) for bound in (x1, x2, y1, y2)]
    if len({bound.shape for bound in bounds}) != 1:
        raise InvalidParameterError("rectangle bound arrays must share a shape")
    ax = strip_integrals(k, np.stack(bounds[:2]))  # a copy: clipped in place
    ay = strip_integrals(k, np.stack(bounds[2:]))
    m = ax.shape[1]
    if np.ndim(height) == 1 and np.shape(height)[0] != m:
        raise InvalidParameterError(
            f"height array has {np.shape(height)[0]} entries for {m} rectangles"
        )
    coeffs = np.zeros((m, (k + 1) * (k + 1)))
    coeffs[:, retained_offsets(k)] = separable_deltas(ax, ay, height).T
    return coeffs.reshape(m, k + 1, k + 1)
