"""Tests for the Z-order curve and the B^x-tree."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import IndexError_, InvalidParameterError
from repro.core.geometry import Rect
from repro.index.bx import BxTree
from repro.index.zorder import ZGrid, deinterleave, interleave
from repro.motion.model import Motion
from repro.motion.table import ObjectTable
from tests.conftest import small_pages

DOMAIN = Rect(0.0, 0.0, 100.0, 100.0)


class TestZOrder:
    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    def test_roundtrip(self, ix, iy):
        code = interleave(ix, iy)
        gx, gy = deinterleave(code)
        assert int(gx) == ix
        assert int(gy) == iy

    def test_known_values(self):
        assert int(interleave(0, 0)) == 0
        assert int(interleave(1, 0)) == 1
        assert int(interleave(0, 1)) == 2
        assert int(interleave(1, 1)) == 3
        assert int(interleave(2, 0)) == 4

    def test_vectorised(self):
        ix = np.array([0, 1, 2, 3])
        iy = np.array([0, 0, 1, 3])
        codes = interleave(ix, iy)
        gx, gy = deinterleave(codes)
        assert (gx == ix).all()
        assert (gy == iy).all()


class TestZGrid:
    def test_cell_of_clamps(self):
        grid = ZGrid(DOMAIN, bits=4)  # 16x16 cells
        assert grid.cell_of(0.0, 0.0) == (0, 0)
        assert grid.cell_of(99.9, 99.9) == (15, 15)
        assert grid.cell_of(-5.0, 120.0) == (0, 15)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ZGrid(DOMAIN, bits=0)
        with pytest.raises(InvalidParameterError):
            ZGrid(DOMAIN, bits=17)

    def test_rect_runs_cover_rect_cells(self):
        grid = ZGrid(DOMAIN, bits=4)
        rect = Rect(10.0, 10.0, 40.0, 30.0)
        runs = grid.rect_runs(rect)
        covered = set()
        for lo, hi in runs:
            covered.update(range(lo, hi + 1))
        # Every cell whose region intersects the rect must be covered.
        for ix in range(16):
            for iy in range(16):
                cx1, cy1 = ix * 6.25, iy * 6.25
                cell = Rect(cx1, cy1, cx1 + 6.25, cy1 + 6.25)
                if cell.intersects(rect):
                    assert int(interleave(ix, iy)) in covered

    def test_runs_are_sorted_and_disjoint(self):
        grid = ZGrid(DOMAIN, bits=5)
        runs = grid.rect_runs(Rect(5, 5, 77, 33))
        for (a_lo, a_hi), (b_lo, b_hi) in zip(runs, runs[1:]):
            assert a_hi + 1 < b_lo
        assert all(lo <= hi for lo, hi in runs)

    def test_whole_domain_is_one_run(self):
        grid = ZGrid(DOMAIN, bits=4)
        runs = grid.rect_runs(DOMAIN)
        assert runs == [(0, 255)]


def random_motions(n, seed=0, tnow=0):
    gen = np.random.default_rng(seed)
    return [
        Motion(
            oid=i,
            t_ref=tnow,
            x=float(gen.uniform(0, 100)),
            y=float(gen.uniform(0, 100)),
            vx=float(gen.uniform(-2, 2)),
            vy=float(gen.uniform(-2, 2)),
        )
        for i in range(n)
    ]


def brute_range(motions, rect, qt):
    out = []
    for m in motions:
        x, y = m.position_at(qt)
        if rect.x1 <= x <= rect.x2 and rect.y1 <= y <= rect.y2:
            out.append(m.oid)
    return sorted(out)


def make_bx(tnow=0, **kwargs):
    """A table and the B^x-tree maintained against it (the table's waves are
    the tree's only write path)."""
    defaults = dict(domain=DOMAIN, horizon=20, phase_length=5, bits=6)
    defaults.update(kwargs)
    table = ObjectTable(tnow=tnow)
    with small_pages(8):
        bx = BxTree(table, **defaults)
    table.add_listener(bx)
    return table, bx


def report(table, motions):
    for m in motions:
        table.report(m.oid, m.x, m.y, m.vx, m.vy)


class TestBxTreeBasics:
    def test_label_timestamp(self):
        _, bx = make_bx(phase_length=5)
        assert bx.label_timestamp(0) == 5
        assert bx.label_timestamp(4) == 5
        assert bx.label_timestamp(5) == 10
        assert bx.label_timestamp(12) == 15

    def test_insert_delete_roundtrip(self):
        table, bx = make_bx()
        table.report(1, 50.0, 50.0, 1.0, 0.0)
        assert len(bx) == 1
        bx.validate()
        table.retire(1)
        assert len(bx) == 0
        bx.validate()

    def test_duplicate_insert_rejected(self):
        table, bx = make_bx()
        table.report(1, 1.0, 1.0, 0.0, 0.0)
        row = table.rows()[0]
        with pytest.raises(IndexError_):  # its row is indexed already
            bx._insert(row, 0, 2.0, 2.0, 0.0, 0.0)

    def test_delete_unknown_rejected(self):
        with pytest.raises(IndexError_):
            make_bx()[1]._delete(7)

    def test_query_before_tnow_rejected(self):
        _, bx = make_bx(tnow=5)
        with pytest.raises(IndexError_):
            bx.range_query(Rect(0, 0, 1, 1), 4)

    def test_max_speed_tracking(self):
        table, bx = make_bx()
        table.report(0, 1.0, 1.0, 3.0, 4.0)
        assert bx.max_speed == pytest.approx(5.0)


class TestBxTreeQueries:
    @given(
        st.integers(1, 60),
        st.integers(0, 10_000),
        st.integers(0, 15),
        st.tuples(st.floats(0, 80), st.floats(0, 80), st.floats(5, 50), st.floats(5, 50)),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_bruteforce(self, n, seed, qt, rect_params):
        x1, y1, w, h = rect_params
        rect = Rect(x1, y1, x1 + w, y1 + h)
        motions = random_motions(n, seed=seed)
        table, bx = make_bx()
        report(table, motions)
        assert sorted(bx.range_query(rect, qt)) == brute_range(motions, rect, qt)

    def test_matches_tpr_tree(self):
        """Both indexes answer identically — FR can use either."""
        from repro.index.tree import TPRTree

        motions = random_motions(120, seed=4)
        table, bx = make_bx()
        with small_pages(8):
            tpr = TPRTree(table, horizon=20)
        table.add_listener(tpr)
        report(table, motions)
        rect = Rect(20, 30, 70, 80)
        for qt in (0, 6, 15):
            got_bx = sorted(bx.range_query(rect, qt))
            assert got_bx == sorted(tpr.range_query(rect, qt, charge_io=False))
            assert got_bx == brute_range(motions, rect, qt)

    def test_matches_bruteforce_after_updates(self):
        gen = np.random.default_rng(5)
        table, bx = make_bx()
        for step in range(4):
            table.advance_to(step * 3)
            wave = [
                (oid, float(gen.uniform(0, 100)), float(gen.uniform(0, 100)),
                 float(gen.uniform(-2, 2)), float(gen.uniform(-2, 2)))
                for oid in range(40)
            ]
            # re-reports as one wave on even steps, one-row waves on odd ones
            if step % 2 == 0:
                table.report_batch(wave)
            else:
                for r in wave:
                    table.report(*r)
        bx.validate()
        rect = Rect(10, 10, 90, 60)
        qt = 12
        assert sorted(bx.range_query(rect, qt)) == brute_range(table.motions(), rect, qt)

    def test_objects_leaving_domain_still_found_inside(self):
        # Object near the border moving out: at the label timestamp its
        # position is outside the domain (clamped code), but queries at
        # earlier times must still find it.
        table, bx = make_bx(phase_length=10)
        table.report(0, 98.0, 50.0, 1.5, 0.0)  # outside from t ~ 1.3
        assert bx.range_query(Rect(95, 45, 100, 55), 0) == [0]

    def test_io_charged_only_on_queries(self):
        from repro.storage.buffer import BufferPool

        pool = BufferPool(capacity_pages=2)
        table, bx = make_bx(buffer_pool=pool)
        report(table, random_motions(60, seed=1))
        assert pool.stats.accesses == 0
        bx.range_query(Rect(0, 0, 100, 100), 0)
        assert pool.stats.accesses > 0


class TestFRWithBxIndex:
    def test_fr_exact_with_bx_backend(self):
        """FRMethod over a B^x-tree equals FRMethod over a TPR-tree."""
        from repro.histogram.density_histogram import DensityHistogram
        from repro.index.tree import TPRTree
        from repro.methods.fr import FRMethod
        from repro.motion.table import ObjectTable
        from repro.core.query import SnapshotPDRQuery

        table = ObjectTable()
        hist = DensityHistogram(DOMAIN, m=20, horizon=12)
        with small_pages(8):
            bx = BxTree(table, DOMAIN, horizon=12, phase_length=3, bits=6)
            tpr = TPRTree(table, horizon=12)
        table.add_listener(hist)
        table.add_listener(bx)
        table.add_listener(tpr)
        gen = np.random.default_rng(9)
        for oid in range(120):
            if oid % 2 == 0:
                x, y = gen.normal([40, 60], 4, size=2)
                x, y = float(np.clip(x, 1, 99)), float(np.clip(y, 1, 99))
            else:
                x, y = float(gen.uniform(1, 99)), float(gen.uniform(1, 99))
            table.report(oid, x, y, float(gen.uniform(-1, 1)), float(gen.uniform(-1, 1)))

        query = SnapshotPDRQuery(rho=0.05, l=10.0, qt=4)
        with_bx = FRMethod(hist, bx).query(query)
        with_tpr = FRMethod(hist, tpr).query(query)
        assert with_bx.regions.symmetric_difference_area(
            with_tpr.regions
        ) == pytest.approx(0.0, abs=1e-9)
