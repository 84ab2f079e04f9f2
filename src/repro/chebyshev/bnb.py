"""Dense-region extraction: bound each tile once, evaluate the rest (Section 6.3).

The paper's branch-and-bound brackets the approximated density over a box
and accepts it (``lower >= rho``), prunes it (``upper < rho``) or quarters
it, down to the cells of the ``m_d`` evaluation grid, which are classified
by the density at their centre.  Here the bracket is taken once, over each
whole polynomial tile — that is what makes the work fall as the threshold
rises — and every undecided tile is then evaluated at all of its leaf
centres in one batched ``T · C · Tᵀ`` with the Chebyshev basis computed once:
a degree-``k`` polynomial on an ``n x n`` patch is two small matmuls,
cheaper than bounding the thousands of boxes a recursion would visit.  The
answer is the same point set the recursion reaches (an accepted box has
every leaf centre ``>= rho``, a pruned one none, the rest are classified by
centre), and the cost still depends only on the coefficient count and the
geometry of the density surface, never on the number of moving objects (the
property behind Figure 10(b)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..core.errors import InvalidParameterError
from .bounds import frame_bounds
from .cheb1d import chebyshev_values
from .cheb2d import evaluate_tiles

__all__ = ["BnBResult", "dense_boxes", "dense_boxes_grid"]


@dataclass
class BnBResult:
    """The leaf-resolution dense mask, its column runs and search statistics.

    ``mask`` is the ``(g n, g n)`` boolean raster of leaf cells indexed
    ``[ix, iy]`` (``n`` dyadic leaves per tile and axis); ``cells`` is the
    ``(M, 4)`` integer array of its maximal y-runs per leaf column as
    ``(ix, iy1, ix + 1, iy2)`` — pairwise disjoint, covering exactly the
    mask.  A *node* is a bounded tile or an evaluated leaf cell.
    """

    mask: np.ndarray
    cells: np.ndarray
    tiles_bounded: int = 0
    accepted_by_bound: int = 0
    pruned_by_bound: int = 0
    resolved_at_leaf: int = 0

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def tiles_evaluated(self) -> int:
        return self.tiles_bounded - self.accepted_by_bound - self.pruned_by_bound

    @property
    def nodes_visited(self) -> int:
        return self.tiles_bounded + self.resolved_at_leaf

    @property
    def boxes(self) -> np.ndarray:
        """The runs as ``(x1, y1, x2, y2)`` rows with the tiling scaled to ``[-1, 1]^2``."""
        return 2.0 * self.cells / self.mask.shape[0] - 1.0

    def box_tuples(self) -> List[Tuple[float, float, float, float]]:
        """Boxes as python tuples (test/debug convenience)."""
        return [tuple(map(float, row)) for row in self.boxes]


def _column_runs(mask: np.ndarray) -> np.ndarray:
    """Maximal runs of True along axis 1, as ``(ix, iy1, ix + 1, iy2)`` rows."""
    width, height = mask.shape
    padded = np.zeros((width, height + 2), dtype=bool)
    padded[:, 1:-1] = mask
    # Every padded column starts and ends False, so the flat list of value
    # changes alternates run start, run end.
    flips = np.flatnonzero(padded[:, 1:] != padded[:, :-1])
    ix, start = np.divmod(flips[0::2], height + 1)
    return np.stack([ix, start, ix + 1, flips[1::2] - ix * (height + 1)], axis=1)


def dense_boxes_grid(coeff_grid: np.ndarray, rho: float, min_edge: float) -> BnBResult:
    """Dense leaf cells of a ``(g, g, k+1, k+1)`` grid of polynomials.

    Each tile is classified in its own normalized ``[-1, 1]^2`` frame at
    the leaves the paper's quartering stops at: the first dyadic edge
    ``2 / n`` that is ``<= min_edge``.  A tile is bracketed once, over
    that whole frame (:func:`~repro.chebyshev.bounds.frame_bounds`).
    """
    if min_edge <= 0:
        raise InvalidParameterError(f"min_edge must be positive, got {min_edge}")
    if coeff_grid.ndim != 4 or coeff_grid.shape[0] != coeff_grid.shape[1]:
        raise InvalidParameterError(
            f"expected (g, g, k+1, k+1) coefficients, got shape {coeff_grid.shape}"
        )
    g = coeff_grid.shape[0]
    n = 1
    while 2.0 / n > min_edge:
        n *= 2
    lower, upper = frame_bounds(coeff_grid)
    accept = lower >= rho
    undecided = ~accept & (upper >= rho)
    ti, tj = np.nonzero(undecided)
    mask = np.repeat(np.repeat(accept, n, axis=0), n, axis=1)
    if ti.size:
        centres = (2.0 * np.arange(n) + 1.0) / n - 1.0
        basis = chebyshev_values(coeff_grid.shape[2] - 1, centres).T
        values = evaluate_tiles(coeff_grid[ti, tj], basis, basis)
        mask.reshape(g, n, g, n)[ti, :, tj, :] = values >= rho
    accepted = int(accept.sum())
    return BnBResult(
        mask=mask,
        cells=_column_runs(mask),
        tiles_bounded=g * g,
        accepted_by_bound=accepted,
        pruned_by_bound=g * g - accepted - ti.size,
        resolved_at_leaf=ti.size * n * n,
    )


def dense_boxes(coeffs: np.ndarray, rho: float, min_edge: float) -> BnBResult:
    """Boxes of ``[-1, 1]^2`` where a single expansion is ``>= rho``.

    Thin wrapper over :func:`dense_boxes_grid` with a 1x1 tile grid.
    """
    return dense_boxes_grid(coeffs[None, None, :, :], rho, min_edge)
