"""Two-dimensional Chebyshev expansions of total degree ``k``.

A density surface over ``[-1, 1]^2`` is approximated as

    f_hat(x, y) = sum_{i + j <= k} a_ij T_i(x) T_j(y)

with coefficients ``a_ij = (c_ij / pi^2) * ∬ f T_i T_j w dx dy`` where
``w = 1/sqrt((1-x^2)(1-y^2))`` and ``c_ij`` is 4 when both indices are
positive, 2 when exactly one is zero, and 1 when both are zero (Theorem 1).

Coefficients are stored in a dense ``(k+1, k+1)`` array whose upper
anti-triangle (``i + j > k``) is identically zero; that keeps evaluation a
pair of matmuls while honouring the paper's total-degree truncation and its
``(k+1)(k+2)/2`` coefficient count.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import InvalidParameterError
from .cheb1d import chebyshev_values

__all__ = [
    "normalization_factors",
    "total_degree_mask",
    "coefficient_count",
    "evaluate",
    "evaluate_grid",
    "evaluate_tiles",
    "approximate_function",
]


def normalization_factors(k: int) -> np.ndarray:
    """The ``c_ij`` matrix of Theorem 1, shape ``(k+1, k+1)``."""
    if k < 0:
        raise InvalidParameterError(f"degree must be >= 0, got {k}")
    c = np.full((k + 1, k + 1), 4.0)
    c[0, :] = 2.0
    c[:, 0] = 2.0
    c[0, 0] = 1.0
    return c


def total_degree_mask(k: int) -> np.ndarray:
    """Boolean mask of the retained coefficients (``i + j <= k``)."""
    idx = np.arange(k + 1)
    return (idx[:, None] + idx[None, :]) <= k


def coefficient_count(k: int) -> int:
    """Number of retained coefficients, ``(k+1)(k+2)/2``."""
    return (k + 1) * (k + 2) // 2


def evaluate(coeffs: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Evaluate the expansion at paired points ``(x[i], y[i])``."""
    k = coeffs.shape[0] - 1
    tx = chebyshev_values(k, np.asarray(x, dtype=float))
    ty = chebyshev_values(k, np.asarray(y, dtype=float))
    return np.einsum("ij,i...,j...->...", coeffs, tx, ty)


def evaluate_tiles(coeffs: np.ndarray, tx: np.ndarray, ty: np.ndarray) -> np.ndarray:
    """Batched tensor-grid evaluation ``tx · C · tyᵀ`` of a stack of expansions.

    ``coeffs`` is ``(..., k+1, k+1)``; ``tx``/``ty`` hold the basis values
    sample-major, ``(..., nx, k+1)`` and ``(..., ny, k+1)``, broadcastable
    against the stack.  Returns ``(..., nx, ny)``.  The basis is computed
    once by the caller and reused for every tile.
    """
    return np.matmul(np.matmul(tx, coeffs), np.swapaxes(ty, -1, -2))


def evaluate_grid(coeffs: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Evaluate on the tensor grid ``xs x ys``; shape ``(len(xs), len(ys))``."""
    k = coeffs.shape[0] - 1
    tx = chebyshev_values(k, np.asarray(xs, dtype=float)).T
    ty = chebyshev_values(k, np.asarray(ys, dtype=float)).T
    return evaluate_tiles(coeffs, tx, ty)


def approximate_function(func, k: int, quad_points: int = 64) -> np.ndarray:
    """Chebyshev coefficients of an arbitrary ``f(x, y)`` by Gauss-Chebyshev quadrature.

    Intended for tests and offline analysis (the PA method never needs it at
    run time: its increments have closed forms).  Uses the Chebyshev-Gauss
    rule, exact for polynomial integrands up to degree ``2*quad_points - 1``.
    """
    if quad_points <= k:
        raise InvalidParameterError(
            f"need more quadrature points ({quad_points}) than degree ({k})"
        )
    # Chebyshev-Gauss nodes and (uniform) weights pi/n.
    n = quad_points
    theta = (np.arange(n) + 0.5) * np.pi / n
    nodes = np.cos(theta)
    tvals = chebyshev_values(k, nodes)  # (k+1, n)
    fx = np.asarray(
        [[func(xi, yj) for yj in nodes] for xi in nodes], dtype=float
    )  # (n, n)
    # a_ij = (c/pi^2) * (pi/n)^2 * sum_pq f(x_p, y_q) T_i(x_p) T_j(y_q)
    raw = np.einsum("pq,ip,jq->ij", fx, tvals, tvals) * (np.pi / n) ** 2
    coeffs = normalization_factors(k) / np.pi**2 * raw
    coeffs[~total_degree_mask(k)] = 0.0
    return coeffs
