"""Tests for delta coefficients (Lemma 4), expansion bounds and dense-region search."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chebyshev.bnb import dense_boxes, dense_boxes_grid
from repro.chebyshev.bounds import bound_expansion, frame_bounds
from repro.chebyshev.cheb2d import (
    approximate_function,
    evaluate,
    total_degree_mask,
)
from repro.chebyshev.delta import delta_coefficients, delta_coefficients_batch
from repro.core.errors import InvalidParameterError

interval = st.tuples(st.floats(-1, 1), st.floats(-1, 1)).map(
    lambda t: (min(t), max(t))
)


def random_coeffs(k, seed):
    gen = np.random.default_rng(seed)
    coeffs = gen.normal(size=(k + 1, k + 1))
    coeffs[~total_degree_mask(k)] = 0.0
    return coeffs


class TestDeltaCoefficients:
    def test_matches_quadrature_of_indicator(self):
        """Closed-form delta coefficients equal the quadrature coefficients
        of the same indicator function (up to quadrature error on a
        discontinuous integrand)."""
        x1, x2, y1, y2, height = -0.4, 0.3, -0.1, 0.8, 2.0

        def indicator(x, y):
            return height if (x1 <= x <= x2 and y1 <= y <= y2) else 0.0

        closed = delta_coefficients(4, x1, x2, y1, y2, height)
        quad = approximate_function(indicator, k=4, quad_points=4000)
        assert np.abs(closed - quad).max() < 5e-3

    def test_full_domain_is_constant(self):
        coeffs = delta_coefficients(5, -1, 1, -1, 1, 3.0)
        assert coeffs[0, 0] == pytest.approx(3.0)
        rest = coeffs.copy()
        rest[0, 0] = 0.0
        assert np.allclose(rest, 0.0, atol=1e-12)

    def test_empty_rect_zero(self):
        assert np.allclose(delta_coefficients(4, 0.5, 0.5, -1, 1, 1.0), 0.0)
        assert np.allclose(delta_coefficients(4, 0.7, 0.2, -1, 1, 1.0), 0.0)

    def test_linearity_in_height(self):
        a = delta_coefficients(4, -0.5, 0.5, -0.5, 0.5, 1.0)
        b = delta_coefficients(4, -0.5, 0.5, -0.5, 0.5, 2.5)
        assert np.allclose(b, 2.5 * a)

    def test_additivity_of_disjoint_rects(self):
        whole = delta_coefficients(5, -0.6, 0.6, -0.2, 0.2, 1.0)
        left = delta_coefficients(5, -0.6, 0.0, -0.2, 0.2, 1.0)
        right = delta_coefficients(5, 0.0, 0.6, -0.2, 0.2, 1.0)
        assert np.allclose(whole, left + right, atol=1e-12)

    def test_clipping_matches_clipped_rect(self):
        a = delta_coefficients(4, -5.0, 0.5, -1.0, 2.0, 1.0)
        b = delta_coefficients(4, -1.0, 0.5, -1.0, 1.0, 1.0)
        assert np.allclose(a, b)

    def test_total_degree_truncation(self):
        coeffs = delta_coefficients(3, -0.3, 0.4, -0.5, 0.5, 1.0)
        assert np.allclose(coeffs[~total_degree_mask(3)], 0.0)

    def test_batch_matches_single(self):
        rects = [
            (-0.5, 0.5, -0.5, 0.5),
            (-1.0, -0.2, 0.0, 0.9),
            (0.1, 0.1, -1.0, 1.0),  # empty
        ]
        batch = delta_coefficients_batch(
            4,
            np.array([r[0] for r in rects]),
            np.array([r[1] for r in rects]),
            np.array([r[2] for r in rects]),
            np.array([r[3] for r in rects]),
            height=0.7,
        )
        for idx, (x1, x2, y1, y2) in enumerate(rects):
            single = delta_coefficients(4, x1, x2, y1, y2, 0.7)
            assert np.allclose(batch[idx], single, atol=1e-12)

    def test_batch_empty_input(self):
        out = delta_coefficients_batch(
            3, np.array([]), np.array([]), np.array([]), np.array([]), 1.0
        )
        assert out.shape == (0, 4, 4)

    def test_batch_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            delta_coefficients_batch(
                3, np.array([0.0]), np.array([0.1, 0.2]), np.array([0.0]),
                np.array([0.1]), 1.0
            )


class TestBoundExpansion:
    @given(st.integers(0, 6), interval, interval, st.integers(0, 10_000))
    @settings(max_examples=80)
    def test_bounds_are_sound(self, k, xint, yint, seed):
        coeffs = random_coeffs(k, seed)
        (x1, x2), (y1, y2) = xint, yint
        lo, hi = bound_expansion(coeffs, x1, x2, y1, y2)
        xs = np.linspace(x1, x2, 17)
        ys = np.linspace(y1, y2, 17)
        for x in xs:
            vals = evaluate(coeffs, np.full(17, x), ys)
            assert vals.min() >= lo - 1e-7
            assert vals.max() <= hi + 1e-7

    def test_constant_expansion_tight(self):
        coeffs = np.zeros((3, 3))
        coeffs[0, 0] = 2.5
        lo, hi = bound_expansion(coeffs, -0.5, 0.5, -0.5, 0.5)
        assert lo == pytest.approx(2.5)
        assert hi == pytest.approx(2.5)

    def test_linear_expansion_tight(self):
        coeffs = np.zeros((2, 2))
        coeffs[1, 0] = 1.0  # f = x
        lo, hi = bound_expansion(coeffs, 0.2, 0.6, -1, 1)
        assert lo == pytest.approx(0.2)
        assert hi == pytest.approx(0.6)

    @given(
        st.integers(1, 4),
        st.integers(0, 6),
        st.integers(0, 10_000),
        st.sampled_from([1e-12, 1.0, 1e6]),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_frame_bounds_are_the_whole_frame_bound_expansion(self, g, k, seed, scale, holes):
        """``a_00 ∓ Σ|a_ij|`` is the same pair of floats as the interval
        arithmetic over ``[-1, 1]^2``, for grids with zeros, signs and
        magnitudes mixed, on a strided view as on a contiguous one."""
        gen = np.random.default_rng(seed)
        ring = gen.normal(scale=scale, size=(g, g, 3, k + 1, k + 1))
        if holes:
            ring[gen.random(ring.shape) < 0.3] = 0.0
        ring[..., ~total_degree_mask(k)] = 0.0
        for grid in (ring[:, :, 1], np.ascontiguousarray(ring[:, :, 1])):
            lower, upper = frame_bounds(grid)
            want_lower, want_upper = bound_expansion(grid, -1.0, 1.0, -1.0, 1.0)
            assert np.array_equal(lower, want_lower)
            assert np.array_equal(upper, want_upper)

    def test_frame_bounds_on_the_bench_worlds_pa_surfaces(self):
        from bench.harness import build_server
        from bench.worlds import road_inputs, uniform_inputs

        for inputs in (road_inputs(2000, 1), uniform_inputs(1000, 1)):
            server, _seconds = build_server(inputs)
            for offset in range(server.pa.horizon + 1):
                grid = server.pa.surface_at(server.tnow + offset).coeffs
                lower, upper = frame_bounds(grid)
                want_lower, want_upper = bound_expansion(grid, -1.0, 1.0, -1.0, 1.0)
                assert np.array_equal(lower, want_lower)
                assert np.array_equal(upper, want_upper)


def leaves_per_tile(min_edge):
    n = 1
    while 2.0 / n > min_edge:
        n *= 2
    return n


def reference_quartering(coeff_grid, rho, min_edge):
    """The paper's recursion, one box at a time (the oracle for the kernel).

    Bound the box; accept it, prune it, or quarter it; a box whose edge is
    down to ``min_edge`` is classified by the density at its centre.
    Returns the leaf raster ``[ix, iy]`` and the number of boxes bounded.
    """
    g = coeff_grid.shape[0]
    n = leaves_per_tile(min_edge)
    mask = np.zeros((g * n, g * n), dtype=bool)
    bounded = 0
    for i in range(g):
        for j in range(g):
            coeffs = coeff_grid[i, j]
            stack = [(-1.0, -1.0, 1.0, 1.0)]
            while stack:
                x1, y1, x2, y2 = stack.pop()
                bounded += 1
                lo, hi = bound_expansion(coeffs, x1, x2, y1, y2)
                cells = (
                    slice(i * n + round((x1 + 1) * n / 2), i * n + round((x2 + 1) * n / 2)),
                    slice(j * n + round((y1 + 1) * n / 2), j * n + round((y2 + 1) * n / 2)),
                )
                mx, my = (x1 + x2) / 2, (y1 + y2) / 2
                if lo >= rho:
                    mask[cells] = True
                elif hi < rho:
                    continue
                elif x2 - x1 <= min_edge:
                    mask[cells] = evaluate(coeffs, np.array([mx]), np.array([my]))[0] >= rho
                else:
                    stack += [
                        (x1, y1, mx, my), (mx, y1, x2, my),
                        (x1, my, mx, y2), (mx, my, x2, y2),
                    ]
    return mask, bounded


def paint(cells, shape):
    """How many emitted rectangles cover each leaf cell."""
    cover = np.zeros(shape, dtype=int)
    for x1, y1, x2, y2 in cells:
        cover[x1:x2, y1:y2] += 1
    return cover


def random_grid(g, k, seed):
    gen = np.random.default_rng(seed)
    grid = gen.normal(size=(g, g, k + 1, k + 1))
    grid[:, :, ~total_degree_mask(k)] = 0.0
    return grid


class TestDenseBoxes:
    def test_constant_above_threshold_whole_domain(self):
        coeffs = np.zeros((3, 3))
        coeffs[0, 0] = 5.0
        result = dense_boxes(coeffs, rho=1.0, min_edge=0.1)
        assert result.mask.all()
        # One full-height run per leaf column.
        assert len(result) == result.mask.shape[0] == 32
        assert {(y1, y2) for _x1, y1, _x2, y2 in result.box_tuples()} == {(-1.0, 1.0)}
        assert sorted(x1 for x1, *_ in result.box_tuples())[0] == -1.0
        assert sorted(x2 for _x1, _y1, x2, _y2 in result.box_tuples())[-1] == 1.0
        assert result.accepted_by_bound == 1
        assert result.nodes_visited == 1

    def test_constant_below_threshold_empty(self):
        coeffs = np.zeros((3, 3))
        coeffs[0, 0] = 0.5
        result = dense_boxes(coeffs, rho=1.0, min_edge=0.1)
        assert len(result) == 0
        assert result.cells.shape == (0, 4)
        assert not result.mask.any()
        assert result.pruned_by_bound == 1
        assert result.nodes_visited == 1

    def test_constant_exactly_at_threshold_accepted(self):
        """``lower == upper == rho``: dense by definition (``>=``), by bound."""
        coeffs = np.zeros((4, 4))
        coeffs[0, 0] = 0.3
        result = dense_boxes(coeffs, rho=0.3, min_edge=0.25)
        assert result.mask.all()
        assert result.accepted_by_bound == 1
        assert result.resolved_at_leaf == 0

    def test_one_leaf_per_tile(self):
        """``m_d == g``: an undecided tile is classified by its centre alone."""
        grid = random_grid(3, 4, seed=5)
        result = dense_boxes_grid(grid, rho=0.0, min_edge=2.0)
        assert result.mask.shape == (3, 3)
        centre = np.array([0.0])
        for i in range(3):
            for j in range(3):
                assert result.mask[i, j] == (evaluate(grid[i, j], centre, centre)[0] >= 0.0)
        assert result.resolved_at_leaf == result.tiles_evaluated
        want, _ = reference_quartering(grid, 0.0, 2.0)
        assert np.array_equal(result.mask, want)

    def test_all_tiles_accepted_or_all_pruned(self):
        grid = np.zeros((3, 3, 4, 4))
        grid[:, :, 0, 0] = 2.0
        grid[:, :, 1, 0] = 0.5
        dense = dense_boxes_grid(grid, rho=1.0, min_edge=0.5)
        assert dense.accepted_by_bound == 9 and dense.nodes_visited == 9
        assert len(dense) == dense.mask.shape[0] == 12  # merged: one run per column
        assert (paint(dense.cells, dense.mask.shape) == 1).all()
        empty = dense_boxes_grid(grid, rho=3.0, min_edge=0.5)
        assert empty.pruned_by_bound == 9 and empty.nodes_visited == 9
        assert len(empty) == 0 and not empty.mask.any()

    def test_halfplane_split(self):
        # f = x: dense where x >= 0.
        coeffs = np.zeros((2, 2))
        coeffs[1, 0] = 1.0
        result = dense_boxes(coeffs, rho=0.0, min_edge=0.05)
        # Total accepted area should approximate the half plane (area 2).
        area = sum((x2 - x1) * (y2 - y1) for x1, y1, x2, y2 in result.box_tuples())
        assert area == pytest.approx(2.0, abs=0.2)
        for x1, _y1, x2, _y2 in result.box_tuples():
            assert x2 > -0.06  # nothing deep in the negative half

    def test_min_edge_validation(self):
        with pytest.raises(InvalidParameterError):
            dense_boxes(np.zeros((2, 2)), 0.0, 0.0)

    @given(st.integers(2, 5), st.integers(0, 10_000), st.floats(-1, 1))
    @settings(max_examples=30, deadline=None)
    def test_boxes_classify_correctly_at_resolution(self, k, seed, rho):
        """A leaf cell is in a box exactly when the density at its centre is
        ``>= rho`` — the semantics of the m_d fallback (the recursion halves
        [-1, 1] down to cells of size min_edge)."""
        coeffs = random_coeffs(k, seed)
        min_edge = 0.125
        result = dense_boxes(coeffs, rho=rho, min_edge=min_edge)
        n = result.mask.shape[0]
        assert n == 16
        centres = (np.arange(n) + 0.5) * min_edge - 1.0
        cx, cy = np.meshgrid(centres, centres, indexing="ij")
        values = evaluate(coeffs, cx.ravel(), cy.ravel()).reshape(n, n)
        assert (values[result.mask] >= rho - 1e-6).all()
        assert (values[~result.mask] < rho + 1e-6).all()
        # The boxes are the mask: in normalized coordinates, too.
        gen = np.random.default_rng(seed + 1)
        boxes = result.box_tuples()
        for _ in range(30):
            px, py = gen.uniform(-1, 1, size=2)
            in_box = any(x1 <= px < x2 and y1 <= py < y2 for x1, y1, x2, y2 in boxes)
            leaf = result.mask[int((px + 1.0) / min_edge), int((py + 1.0) / min_edge)]
            assert in_box == leaf

    @given(
        st.integers(1, 3),
        st.integers(1, 5),
        st.integers(0, 10_000),
        st.floats(-2, 2),
        st.sampled_from([3.0, 2.0, 1.0, 0.7, 0.5, 0.3, 0.25, 0.2, 0.125, 0.078125]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_quartering(self, g, k, seed, rho, min_edge):
        """Same leaf raster as the recursion, emitted as disjoint rectangles."""
        grid = random_grid(g, k, seed)
        result = dense_boxes_grid(grid, rho, min_edge)
        want, bounded = reference_quartering(grid, rho, min_edge)
        assert np.array_equal(result.mask, want)
        cover = paint(result.cells, want.shape)
        assert cover.max(initial=0) <= 1  # pairwise disjoint
        assert np.array_equal(cover == 1, want)
        areas = (result.cells[:, 2] - result.cells[:, 0]) * (
            result.cells[:, 3] - result.cells[:, 1]
        )
        assert areas.sum() == want.sum()
        # Runs are maximal: no run continues the one below it.
        order = np.lexsort((result.cells[:, 1], result.cells[:, 0]))
        runs = result.cells[order]
        touching = (runs[1:, 0] == runs[:-1, 0]) & (runs[1:, 1] == runs[:-1, 3])
        assert not touching.any()
        # Never more bound calls than the recursion, and the same node
        # accounting: boxes bounded plus leaf cells evaluated.
        assert result.tiles_bounded == g * g <= bounded
        n = leaves_per_tile(min_edge)
        assert result.resolved_at_leaf == result.tiles_evaluated * n * n
        assert result.nodes_visited == g * g + result.resolved_at_leaf

    def test_grid_version_matches_per_tile(self):
        gen = np.random.default_rng(7)
        grid = gen.normal(size=(2, 2, 4, 4))
        grid[:, :, ~total_degree_mask(3)] = 0.0
        combined = dense_boxes_grid(grid, rho=0.3, min_edge=0.25)
        # Per-tile searches produce the same leaves per tile.
        n = 8
        for i in range(2):
            for j in range(2):
                single = dense_boxes(grid[i, j], rho=0.3, min_edge=0.25)
                block = combined.mask[i * n:(i + 1) * n, j * n:(j + 1) * n]
                assert np.array_equal(block, single.mask)

    def test_grid_shape_validation(self):
        with pytest.raises(InvalidParameterError):
            dense_boxes_grid(np.zeros((2, 3, 4, 4)), 0.0, 0.1)
