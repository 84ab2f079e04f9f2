"""One-dimensional Chebyshev building blocks.

``T_k(x) = cos(k arccos x)`` on ``[-1, 1]`` (Definition 8).  The PA method
needs three operations on these basis functions:

* evaluating ``T_0..T_k`` at many points (the three-term recurrence);
* the closed-form weighted integrals ``∫ T_i(x)/sqrt(1-x^2) dx`` over a
  sub-interval, which drive the per-update delta coefficients (Lemma 4);
* tight lower/upper bounds of ``T_i`` over a sub-interval ``[z1, z2]``,
  which drive the branch-and-bound query evaluation (Section 6.3).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..core.errors import InvalidParameterError

__all__ = [
    "chebyshev_values",
    "weighted_integrals",
    "interval_bounds",
    "interval_bounds_all",
]

_TWO_PI = 2.0 * math.pi


def chebyshev_values(k: int, x: np.ndarray) -> np.ndarray:
    """``T_0..T_k`` evaluated at ``x``; shape ``(k+1, len(x))``.

    Uses the three-term recurrence ``T_n = 2 x T_{n-1} - T_{n-2}``, which is
    numerically stable on ``[-1, 1]``.
    """
    if k < 0:
        raise InvalidParameterError(f"degree must be >= 0, got {k}")
    x = np.asarray(x, dtype=float)
    out = np.empty((k + 1,) + x.shape, dtype=float)
    out[0] = 1.0
    if k >= 1:
        out[1] = x
    for n in range(2, k + 1):
        out[n] = 2.0 * x * out[n - 1] - out[n - 2]
    return out


def weighted_integrals(k: int, z1: float, z2: float) -> np.ndarray:
    """``∫_{z1}^{z2} T_i(x) / sqrt(1 - x^2) dx`` for ``i = 0..k``.

    Uses the antiderivatives from the paper's Lemma 4:
    ``-arccos(x)`` for ``i = 0`` and ``-sin(i arccos x)/i`` for ``i > 0``.
    Inputs are clipped to ``[-1, 1]``; an empty interval yields zeros.
    """
    if k < 0:
        raise InvalidParameterError(f"degree must be >= 0, got {k}")
    z1 = min(max(z1, -1.0), 1.0)
    z2 = min(max(z2, -1.0), 1.0)
    out = np.zeros(k + 1, dtype=float)
    if z2 <= z1:
        return out
    theta1 = math.acos(z1)  # larger angle (z1 <= z2 -> theta1 >= theta2)
    theta2 = math.acos(z2)
    out[0] = theta1 - theta2
    if k >= 1:
        i = np.arange(1, k + 1, dtype=float)
        out[1:] = (np.sin(i * theta1) - np.sin(i * theta2)) / i
    return out


def plain_integrals(k: int, z1: float, z2: float) -> np.ndarray:
    """``∫_{z1}^{z2} T_i(x) dx`` (unweighted) for ``i = 0..k``.

    Uses the classical antiderivatives ``∫T_0 = x``, ``∫T_1 = x^2/2`` and
    ``∫T_n = T_{n+1}/(2(n+1)) - T_{n-1}/(2(n-1))`` for ``n >= 2``.  These
    drive the closed-form selectivity estimator (integrating the density
    surface over a query rectangle).
    """
    if k < 0:
        raise InvalidParameterError(f"degree must be >= 0, got {k}")
    z1 = min(max(z1, -1.0), 1.0)
    z2 = min(max(z2, -1.0), 1.0)
    out = np.zeros(k + 1, dtype=float)
    if z2 <= z1:
        return out
    ends = np.array([z1, z2])
    t = chebyshev_values(k + 1, ends)  # (k+2, 2)
    out[0] = z2 - z1
    if k >= 1:
        out[1] = (z2 * z2 - z1 * z1) / 2.0
    for n in range(2, k + 1):
        anti = t[n + 1] / (2.0 * (n + 1)) - t[n - 1] / (2.0 * (n - 1))
        out[n] = anti[1] - anti[0]
    return out


def interval_bounds(i: int, z1: float, z2: float) -> Tuple[float, float]:
    """Exact ``(lower, upper)`` of ``T_i`` over ``[z1, z2] ⊆ [-1, 1]``."""
    if i < 0:
        raise InvalidParameterError(f"degree must be >= 0, got {i}")
    if z2 < z1:
        raise InvalidParameterError(f"empty interval [{z1}, {z2}]")
    lows, highs = interval_bounds_all(i, z1, z2)
    return float(lows[i]), float(highs[i])


def interval_bounds_all(k: int, z1, z2) -> Tuple[np.ndarray, np.ndarray]:
    """Exact bounds of ``T_0..T_k`` over ``[z1, z2]``; returns (lows, highs).

    ``z1``/``z2`` are scalars or broadcastable arrays (clipped to
    ``[-1, 1]``); the results have shape ``(..., k+1)``.  ``T_i(x) =
    cos(i θ)`` with ``θ = arccos x`` decreasing in ``x``, so the angular
    interval of degree ``i`` is ``[i·arccos(z2), i·arccos(z1)]``; the cosine
    attains +1 when it crosses a multiple of ``2π`` and -1 when it crosses
    an odd multiple of ``π``, otherwise its extrema sit at the endpoints.
    """
    i = np.arange(k + 1, dtype=float)
    phi1 = i * np.arccos(np.clip(z2, -1.0, 1.0))[..., None]
    phi2 = i * np.arccos(np.clip(z1, -1.0, 1.0))[..., None]
    c1 = np.cos(phi1)
    c2 = np.cos(phi2)
    has_max = np.floor(phi2 / _TWO_PI) >= np.ceil(phi1 / _TWO_PI)
    has_min = np.floor((phi2 - math.pi) / _TWO_PI) >= np.ceil((phi1 - math.pi) / _TWO_PI)
    highs = np.where(has_max, 1.0, np.maximum(c1, c2))
    lows = np.where(has_min, -1.0, np.minimum(c1, c2))
    # Degree 0 is constant 1 regardless of the interval.
    lows[..., 0] = 1.0
    highs[..., 0] = 1.0
    return lows, highs
