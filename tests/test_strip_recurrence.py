"""The stacked-bound strip recurrence gives the per-bound recurrence's floats.

``strip_integrals`` runs the Chebyshev sine recurrence once over a ``(2, S)``
block of both bounds of every strip.  ``_per_bound`` below is the recurrence
as it ran before, one bound array at a time; every step of either is
elementwise, so the two must agree bit for bit, edges included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chebyshev.delta import strip_integrals


def _per_bound(k: int, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """The strip recurrence with a pass over each bound on its own."""
    z1 = np.minimum(np.maximum(np.asarray(z1, dtype=float), -1.0), 1.0)
    z2 = np.minimum(np.maximum(np.asarray(z2, dtype=float), -1.0), 1.0)
    s = z1.shape[0]
    out = np.empty((k + 1, s))
    tmp = np.empty(s)
    np.subtract(np.arccos(z1, out=out[0]), np.arccos(z2, out=tmp), out=out[0])
    if k >= 1:
        cur1, cur2 = np.empty(s), np.empty(s)
        prev1, prev2 = np.zeros(s), np.zeros(s)
        for z, cur in ((z1, cur1), (z2, cur2)):
            np.sqrt(np.subtract(1.0, np.multiply(z, z, out=cur), out=cur), out=cur)
        np.subtract(cur1, cur2, out=out[1])
        for i in range(2, k + 1):
            for z, cur, prev in ((z1, cur1, prev1), (z2, cur2, prev2)):
                np.subtract(
                    np.multiply(np.multiply(2.0, z, out=tmp), cur, out=tmp), prev, out=prev
                )
            cur1, prev1, cur2, prev2 = prev1, cur1, prev2, cur2
            np.divide(np.subtract(cur1, cur2, out=out[i]), i, out=out[i])
        out[1:] *= 2.0
    out[:, z2 <= z1] = 0.0
    return out


def _stacked(k: int, z1, z2) -> np.ndarray:
    return strip_integrals(k, np.array([z1, z2], dtype=float))


def _same_floats(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.all(a == b)) and a.tobytes() == b.tobytes()


EDGES = [
    -1.5, -1.0, -1.0 + 2**-52, -0.5, -0.0, 0.0, 1e-300, 0.25, 1.0 - 2**-53, 1.0, 1.0 + 1e-9, 3.0,
]


@pytest.mark.parametrize("k", range(0, 8))
def test_edge_bounds(k):
    """Bounds at exactly -1 and 1, on either side of them, equal bounds,
    reversed bounds (an empty strip) and values outside [-1, 1]."""
    z1, z2 = np.meshgrid(EDGES, EDGES)
    z1, z2 = z1.reshape(-1), z2.reshape(-1)
    stacked = _stacked(k, z1, z2)
    assert _same_floats(stacked, _per_bound(k, z1, z2))
    empty = z2.clip(-1, 1) <= z1.clip(-1, 1)
    assert empty.any() and not stacked[:, empty].any()


def test_no_strip():
    assert _stacked(5, [], []).shape == (6, 0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 7),
    st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)), min_size=1, max_size=40),
)
def test_random_bounds(k, pairs):
    z1, z2 = (np.array(bound) for bound in zip(*pairs))
    assert _same_floats(_stacked(k, z1, z2), _per_bound(k, z1, z2))


def test_bounds_are_clipped_in_place():
    z = np.array([[-3.0, 0.5], [0.25, 7.0]])
    strip_integrals(3, z)
    # clipped to [-1, 1], then doubled for the recurrence
    assert np.array_equal(z, [[-2.0, 1.0], [0.5, 2.0]])
