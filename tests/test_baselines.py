"""Tests for the baselines: brute force oracle, dense cells, EDQ."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.bruteforce import bruteforce_from_motions, bruteforce_pdr
from repro.baselines.dense_cell import dense_cell_query
from repro.baselines.edq import edq_query, edq_report_ambiguity
from repro.core.geometry import Rect
from repro.core.query import SnapshotPDRQuery
from repro.histogram.density_histogram import DensityHistogram
from repro.motion.table import ObjectTable

DOMAIN = Rect(0.0, 0.0, 100.0, 100.0)


class TestBruteForce:
    def test_single_object(self):
        q = SnapshotPDRQuery(rho=0.01, l=10.0, qt=0)
        result = bruteforce_pdr([(50.0, 50.0)], DOMAIN, q)
        assert result.regions.area() == pytest.approx(100.0)
        assert result.stats.method == "bruteforce"
        assert result.stats.objects_examined == 1

    def test_from_motions_evaluates_at_qt(self):
        q = SnapshotPDRQuery(rho=0.01, l=10.0, qt=5)
        table = ObjectTable()
        table.report(0, 10.0, 50.0, 4.0, 0.0)  # at qt=5: x=30
        result = bruteforce_from_motions(table.columns(), DOMAIN, q)
        assert result.regions.contains_point(30.0, 50.0)
        assert not result.regions.contains_point(10.0, 50.0)

    def test_from_motions_ignores_out_of_domain(self):
        q = SnapshotPDRQuery(rho=0.001, l=10.0, qt=5)
        table = ObjectTable()
        table.report(0, 90.0, 50.0, 4.0, 0.0)  # at qt=5: x=110
        table.report(1, 50.0, 50.0, 10.0, 0.0)  # at qt=5: x=100, the open edge
        result = bruteforce_from_motions(table.columns(), DOMAIN, q)
        assert result.regions.is_empty()


class TestDenseCell:
    def _hist_with(self, positions):
        table = ObjectTable()
        hist = DensityHistogram(DOMAIN, m=10, horizon=2)  # 10x10 cells
        table.add_listener(hist)
        for oid, (x, y) in enumerate(positions):
            table.report(oid, float(x), float(y), 0.0, 0.0)
        return hist

    def test_reports_dense_cell(self):
        # 5 objects in cell (2, 2): region density 5/100 = 0.05.
        hist = self._hist_with([(25 + i, 25) for i in range(5)])
        q = SnapshotPDRQuery(rho=0.05, l=10.0, qt=0)
        result = dense_cell_query(hist, q)
        assert len(result.regions) == 1
        assert result.regions.rects[0] == Rect(20, 20, 30, 30)

    def test_answer_loss_figure_1a(self):
        """Four objects around a cell corner: no cell is dense, so the
        baseline reports nothing — while the PDR answer is non-empty."""
        positions = [(29.0, 29.0), (31.0, 29.0), (29.0, 31.0), (31.0, 31.0)]
        hist = self._hist_with(positions)
        q = SnapshotPDRQuery(rho=0.04, l=10.0, qt=0)  # needs 4 per l-square
        cells = dense_cell_query(hist, q)
        assert cells.regions.is_empty()  # answer loss
        pdr = bruteforce_pdr(positions, DOMAIN, q)
        assert not pdr.regions.is_empty()
        assert pdr.regions.contains_point(30.0, 30.0)

    def test_threshold_boundary_inclusive(self):
        hist = self._hist_with([(5, 5)])
        q = SnapshotPDRQuery(rho=0.01, l=10.0, qt=0)  # exactly 1 per cell
        result = dense_cell_query(hist, q)
        assert len(result.regions) == 1


class TestEDQ:
    def test_squares_have_edge_l(self):
        positions = [(50.0, 50.0), (51.0, 50.0)]
        q = SnapshotPDRQuery(rho=0.02, l=10.0, qt=0)
        result = edq_query(positions, DOMAIN, q)
        for rect in result.regions:
            assert rect.width == pytest.approx(10.0)
            assert rect.height == pytest.approx(10.0)

    def test_non_overlapping(self):
        gen = np.random.default_rng(0)
        positions = [tuple(gen.uniform(10, 90, size=2)) for _ in range(60)]
        q = SnapshotPDRQuery(rho=0.02, l=10.0, qt=0)
        result = edq_query(positions, DOMAIN, q)
        rects = list(result.regions)
        for i, a in enumerate(rects):
            for b in rects[i + 1 :]:
                assert not a.intersects(b)

    def test_empty_when_nothing_dense(self):
        q = SnapshotPDRQuery(rho=0.5, l=10.0, qt=0)
        assert edq_query([(50.0, 50.0)], DOMAIN, q).regions.is_empty()

    def test_finds_obvious_cluster(self):
        positions = [(50.0 + dx, 50.0 + dy) for dx in (0, 1) for dy in (0, 1)]
        q = SnapshotPDRQuery(rho=0.04, l=10.0, qt=0)
        result = edq_query(positions, DOMAIN, q)
        assert len(result.regions) >= 1

    def test_ambiguity_figure_1b(self):
        """Two overlapping dense squares: different reporting strategies can
        return different (both valid) answers."""
        # Two clusters 8 apart with l = 10: their dense squares overlap, so
        # a non-overlapping report must drop one of the two options.
        positions = [
            (46.0, 50.0), (46.5, 50.0), (47.0, 50.0),
            (54.0, 50.0), (54.5, 50.0), (55.0, 50.0),
        ]
        q = SnapshotPDRQuery(rho=0.03, l=10.0, qt=0)
        a, b = edq_report_ambiguity(positions, DOMAIN, q)
        # Both answers are non-overlapping and dense; at least one differs
        # in extent (the ambiguity the paper criticises), or — if the greedy
        # orders happen to coincide — both contain fewer squares than the
        # number of dense patches.
        assert not a.regions.is_empty()
        assert not b.regions.is_empty()
        difference = a.regions.symmetric_difference_area(b.regions)
        pdr = bruteforce_pdr(positions, DOMAIN, q)
        # PDR reports the full dense point set, a superset of information.
        assert pdr.regions.area() > 0
        assert difference >= 0.0  # strategies may or may not coincide here

    def test_pdr_includes_edq_centers(self):
        """Section 3.1: the centres of the baselines' dense squares are
        rho-dense points, hence inside the PDR answer."""
        gen = np.random.default_rng(7)
        positions = [tuple(gen.normal([40, 40], 5, size=2)) for _ in range(30)]
        positions = [(float(x), float(y)) for x, y in positions]
        q = SnapshotPDRQuery(rho=0.05, l=10.0, qt=0)
        edq = edq_query(positions, DOMAIN, q)
        pdr = bruteforce_pdr(positions, DOMAIN, q)
        for rect in edq.regions:
            c = rect.center
            assert pdr.regions.contains_point(c.x, c.y)
