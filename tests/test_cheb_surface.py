"""Tests for GridSpec / ChebSurface (multi-polynomial density surfaces)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chebyshev.grid import ChebSurface, GridSpec
from repro.core.errors import InvalidParameterError
from repro.core.geometry import Rect
from repro.core.regions import RegionSet

DOMAIN = Rect(0.0, 0.0, 100.0, 100.0)


def make_surface(g=4, k=4):
    spec = GridSpec(DOMAIN, g=g, k=k)
    return ChebSurface(spec, spec.zero_coefficients())


class TestGridSpec:
    def test_cell_geometry(self):
        spec = GridSpec(DOMAIN, g=4, k=3)
        assert spec.cell_width == pytest.approx(25.0)
        assert spec.cell_rect(0, 0) == Rect(0, 0, 25, 25)
        assert spec.cell_rect(3, 3) == Rect(75, 75, 100, 100)

    def test_cell_of_clamps(self):
        spec = GridSpec(DOMAIN, g=4, k=3)
        assert spec.cell_of(0.0, 0.0) == (0, 0)
        assert spec.cell_of(99.9, 99.9) == (3, 3)
        assert spec.cell_of(100.0, 100.0) == (3, 3)  # boundary clamps

    def test_normalization_roundtrip(self):
        spec = GridSpec(DOMAIN, g=4, k=3)
        nx = float(spec.to_normalized_x(1, 30.0))
        ny = float(spec.to_normalized_y(2, 60.0))
        x, y = spec.from_normalized(1, 2, nx, ny)
        assert x == pytest.approx(30.0)
        assert y == pytest.approx(60.0)

    def test_normalized_range(self):
        spec = GridSpec(DOMAIN, g=4, k=3)
        assert float(spec.to_normalized_x(0, 0.0)) == pytest.approx(-1.0)
        assert float(spec.to_normalized_x(0, 25.0)) == pytest.approx(1.0)

    def test_memory_formula(self):
        spec = GridSpec(DOMAIN, g=20, k=5)
        # A ring of W + 1 slots: (W+1) * g^2 * (k+1)(k+2)/2 * 8 bytes.
        assert spec.coefficients_memory_bytes(60) == 61 * 400 * 21 * 8

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            GridSpec(DOMAIN, g=0, k=3)
        with pytest.raises(InvalidParameterError):
            GridSpec(DOMAIN, g=2, k=-1)

    def test_surface_shape_validation(self):
        spec = GridSpec(DOMAIN, g=2, k=2)
        with pytest.raises(InvalidParameterError):
            ChebSurface(spec, np.zeros((2, 2, 4, 4)))


class TestSurfaceIncrements:
    def test_zero_surface(self):
        surface = make_surface()
        assert surface.density_at(50.0, 50.0) == pytest.approx(0.0)

    def test_add_rect_approximates_indicator(self):
        surface = make_surface(g=4, k=6)
        surface.add_rect(Rect(10, 10, 20, 20), height=2.0)
        # Deep inside the rectangle.
        assert surface.density_at(15.0, 15.0) == pytest.approx(2.0, abs=0.35)
        # Far away, same tile.
        assert abs(surface.density_at(5.0, 5.0)) < 0.6
        # Other tiles untouched.
        assert surface.density_at(80.0, 80.0) == pytest.approx(0.0, abs=1e-12)

    def test_add_then_remove_object_cancels(self):
        surface = make_surface()
        before = surface.coeffs.copy()
        surface.add_object(33.0, 44.0, l=10.0)
        surface.remove_object(33.0, 44.0, l=10.0)
        assert np.allclose(surface.coeffs, before, atol=1e-12)

    def test_add_object_spanning_tiles(self):
        surface = make_surface(g=4, k=5)
        # Object at a tile corner: its square touches 4 tiles.
        surface.add_object(50.0, 50.0, l=10.0)
        touched = [
            (i, j)
            for i in range(4)
            for j in range(4)
            if not np.allclose(surface.coeffs[i, j], 0.0)
        ]
        assert set(touched) == {(1, 1), (1, 2), (2, 1), (2, 2)}

    def test_mass_conservation(self):
        """The mean of the approximated delta equals the indicator's mean.

        a_00 of each tile is the tile-average against the Chebyshev weight;
        instead we check the plain integral via a fine sample grid.
        """
        surface = make_surface(g=2, k=8)
        rect = Rect(20, 30, 40, 60)
        surface.add_rect(rect, height=1.0)
        grid = surface.density_grid(160)
        integral = grid.sum() * (100.0 / 160) ** 2
        assert integral == pytest.approx(rect.area, rel=0.05)

    def test_rect_outside_domain_ignored(self):
        surface = make_surface()
        surface.add_rect(Rect(200, 200, 210, 210), 1.0)
        assert np.allclose(surface.coeffs, 0.0)

    def test_density_grid_matches_density_at(self):
        surface = make_surface(g=3, k=4)
        gen = np.random.default_rng(0)
        surface.coeffs[:] = gen.normal(size=surface.coeffs.shape) * 0.1
        res = 12
        grid = surface.density_grid(res)
        for ix in (0, 5, 11):
            for iy in (0, 7, 11):
                x = (ix + 0.5) * (100.0 / res)
                y = (iy + 0.5) * (100.0 / res)
                assert grid[ix, iy] == pytest.approx(
                    surface.density_at(x, y), abs=1e-9
                )

    def test_density_grid_validation(self):
        with pytest.raises(InvalidParameterError):
            make_surface().density_grid(0)


class TestDenseRegions:
    def test_uniform_surface_all_dense(self):
        surface = make_surface(g=2, k=3)
        surface.coeffs[:, :, 0, 0] = 2.0
        regions, stats = surface.dense_regions(rho=1.0, md=64)
        assert regions.area() == pytest.approx(DOMAIN.area)
        assert stats.nodes_visited == 4  # one accept per tile

    def test_uniform_surface_none_dense(self):
        surface = make_surface(g=2, k=3)
        surface.coeffs[:, :, 0, 0] = 0.5
        regions, stats = surface.dense_regions(rho=1.0, md=64)
        assert regions.is_empty()
        assert stats.pruned_by_bound == 4

    def test_hotspot_found(self):
        surface = make_surface(g=4, k=6)
        surface.add_rect(Rect(40, 40, 60, 60), height=5.0)
        regions, _stats = surface.dense_regions(rho=2.5, md=256)
        assert regions.contains_point(50.0, 50.0)
        assert not regions.contains_point(10.0, 10.0)
        # Area roughly matches the hotspot.
        assert regions.area() == pytest.approx(400.0, rel=0.5)

    def test_regions_are_disjoint_column_runs_of_the_leaf_mask(self):
        surface = make_surface(g=3, k=4)
        gen = np.random.default_rng(4)
        surface.coeffs[:] = gen.normal(size=surface.coeffs.shape) * 0.3
        # m_d = 20 over g = 3: the first dyadic split with >= 20/3 leaves
        # per tile is 8, so the leaf grid is 24 x 24, not 20 x 20.
        regions, stats = surface.dense_regions(rho=0.1, md=20)
        assert stats.mask.shape == (24, 24)
        leaf = 100.0 / 24
        assert 0 < stats.mask.sum() < 24 * 24
        assert regions.area() == pytest.approx(stats.mask.sum() * leaf * leaf, rel=1e-12)
        assert RegionSet(regions.rects).area() == pytest.approx(regions.area(), rel=1e-9)
        assert np.allclose(regions.bounds[:, 2] - regions.bounds[:, 0], leaf)
        for ix, iy in ((0, 0), (7, 8), (23, 23), (12, 5)):
            x, y = (ix + 0.5) * leaf, (iy + 0.5) * leaf
            assert regions.contains_point(x, y) == stats.mask[ix, iy]
            assert stats.mask[ix, iy] == (surface.density_at(x, y) >= 0.1)

    def test_md_validation(self):
        surface = make_surface(g=4, k=3)
        with pytest.raises(InvalidParameterError):
            surface.dense_regions(rho=1.0, md=2)

    @given(st.integers(0, 1000), st.floats(-0.5, 0.5))
    @settings(max_examples=15, deadline=None)
    def test_regions_within_domain(self, seed, rho):
        surface = make_surface(g=3, k=3)
        gen = np.random.default_rng(seed)
        surface.coeffs[:] = gen.normal(size=surface.coeffs.shape) * 0.3
        regions, _ = surface.dense_regions(rho=rho, md=96)
        box = regions.bounding_box()
        if box is not None:
            assert DOMAIN.x1 - 1e-9 <= box.x1
            assert box.x2 <= DOMAIN.x2 + 1e-9
