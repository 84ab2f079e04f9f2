"""Tests for selectivity estimation and top-k density peaks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chebyshev.cheb1d import chebyshev_values, plain_integrals
from repro.core.errors import InvalidParameterError
from repro.core.geometry import Rect
from repro.methods.estimate import (
    estimate_count_dh,
    estimate_count_pa,
    exact_count,
)
from repro.methods.topk import DensityPeak, top_k_peaks
from repro.core.system import PDRServer
from tests.conftest import populate_clustered, small_system_config


@pytest.fixture
def server():
    srv = PDRServer(small_system_config(), expected_objects=200)
    populate_clustered(srv, 160, seed=2)
    return srv


class TestPlainIntegrals:
    @given(st.integers(0, 8), st.floats(-1, 1), st.floats(-1, 1))
    @settings(max_examples=60)
    def test_matches_numeric(self, n, a, b):
        z1, z2 = min(a, b), max(a, b)
        # Trapezoid error here is h^2/12 * (T_n'(z2) - T_n'(z1)) <= h^2 n^2 / 6:
        # 20001 points keep it under 1.1e-7 at n = 8 over the full interval.
        xs = np.linspace(z1, z2, 20001)
        numeric = np.trapezoid(chebyshev_values(n, xs)[n], xs) if z2 > z1 else 0.0
        closed = plain_integrals(n, z1, z2)[n]
        assert closed == pytest.approx(numeric, abs=1e-6)

    def test_full_interval_known_values(self):
        vals = plain_integrals(4, -1.0, 1.0)
        # ∫T_0 = 2, ∫T_1 = 0, ∫T_2 = -2/3, ∫T_3 = 0, ∫T_4 = -2/15.
        assert vals[0] == pytest.approx(2.0)
        assert vals[1] == pytest.approx(0.0)
        assert vals[2] == pytest.approx(-2.0 / 3.0)
        assert vals[3] == pytest.approx(0.0)
        assert vals[4] == pytest.approx(-2.0 / 15.0)

    def test_additive(self):
        whole = plain_integrals(5, -0.7, 0.9)
        left = plain_integrals(5, -0.7, 0.1)
        right = plain_integrals(5, 0.1, 0.9)
        assert np.allclose(whole, left + right, atol=1e-12)


class TestCountEstimators:
    def test_exact_count_reference(self, server):
        rect = Rect(20.0, 20.0, 45.0, 45.0)
        count = exact_count(server.table, rect, 0, server.config.horizon)
        brute = sum(
            1 for _o, x, y in server.table.positions_at(0) if rect.contains_point(x, y)
        )
        assert count == brute

    def test_dh_estimate_whole_domain(self, server):
        rect = server.config.domain
        estimate = estimate_count_dh(server.histogram, rect, 0)
        exact = exact_count(server.table, rect, 0, server.config.horizon)
        assert estimate == pytest.approx(exact, abs=1e-6)

    def test_pa_estimate_whole_domain(self, server):
        """Total surface mass equals the object count (each object adds 1)."""
        rect = server.config.domain
        estimate = estimate_count_pa(server.pa, rect, 0)
        exact = exact_count(server.table, rect, 0, server.config.horizon)
        # Mass near the border leaks outside the domain (clipped squares),
        # so the estimate sits slightly below the exact count.
        assert estimate == pytest.approx(exact, rel=0.1)

    def test_estimators_track_cluster(self, server):
        hot = Rect(20.0, 20.0, 40.0, 40.0)  # contains cluster 1
        cold = Rect(2.0, 70.0, 22.0, 90.0)
        horizon = server.config.horizon
        for estimator in (
            lambda r: estimate_count_dh(server.histogram, r, 0),
            lambda r: estimate_count_pa(server.pa, r, 0),
        ):
            hot_exact = exact_count(server.table, hot, 0, horizon)
            cold_exact = exact_count(server.table, cold, 0, horizon)
            assert hot_exact > cold_exact  # sanity of the fixture
            assert estimator(hot) > estimator(cold)

    def test_dh_estimate_quality(self, server):
        gen = np.random.default_rng(3)
        horizon = server.config.horizon
        errors = []
        for _ in range(10):
            x, y = gen.uniform(5, 60, size=2)
            rect = Rect(x, y, x + 30, y + 30)
            exact = exact_count(server.table, rect, 0, horizon)
            est = estimate_count_dh(server.histogram, rect, 0)
            errors.append(abs(est - exact))
        assert float(np.mean(errors)) < 8.0  # of ~160 objects

    def test_empty_range(self, server):
        outside = Rect(200.0, 200.0, 210.0, 210.0)
        assert estimate_count_dh(server.histogram, outside, 0) == 0.0
        assert estimate_count_pa(server.pa, outside, 0) == 0.0


class TestTopKPeaks:
    def test_validation(self, server):
        with pytest.raises(InvalidParameterError):
            top_k_peaks(server.pa, 0, k=0)
        with pytest.raises(InvalidParameterError):
            top_k_peaks(server.pa, 0, k=1, md=1)

    def test_finds_the_two_clusters(self, server):
        peaks = top_k_peaks(server.pa, 0, k=2, separation=20.0)
        assert len(peaks) == 2
        centers = [(30.0, 30.0), (70.0, 65.0)]
        for peak in peaks:
            assert any(
                np.hypot(peak.x - cx, peak.y - cy) < 12.0 for cx, cy in centers
            )
        # The two peaks describe different clusters.
        assert np.hypot(peaks[0].x - peaks[1].x, peaks[0].y - peaks[1].y) >= 20.0

    def test_peaks_sorted_by_density(self, server):
        peaks = top_k_peaks(server.pa, 0, k=3, separation=15.0)
        densities = [p.density for p in peaks]
        assert densities == sorted(densities, reverse=True)

    def test_top1_matches_dense_grid_argmax(self, server):
        """The best-first search agrees with an exhaustive grid argmax."""
        peak = top_k_peaks(server.pa, 0, k=1, md=128)[0]
        surface = server.pa.surface_at(0)
        values = surface.density_grid(128)
        assert peak.density == pytest.approx(float(values.max()), rel=0.05)

    def test_peak_density_close_to_true_density(self, server):
        from repro.core.geometry import point_in_square

        peak = top_k_peaks(server.pa, 0, k=1)[0]
        l = server.config.l
        count = sum(
            1
            for _o, x, y in server.table.positions_at(0)
            if point_in_square(x, y, peak.x, peak.y, l)
        )
        true_density = count / (l * l)
        assert peak.density == pytest.approx(true_density, rel=0.4)

    def test_empty_surface_returns_flat_peaks(self, small_config):
        srv = PDRServer(small_config, expected_objects=10)
        peaks = top_k_peaks(srv.pa, 0, k=2, separation=5.0)
        assert all(p.density == pytest.approx(0.0, abs=1e-9) for p in peaks)
