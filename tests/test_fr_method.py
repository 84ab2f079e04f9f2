"""Tests for the exact FR method: filter step plus refinement.

The central property: FR's answer equals the brute-force full-plane sweep
exactly, region for region, under random workloads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import bruteforce_from_motions
from repro.core.errors import InvalidParameterError
from repro.core.geometry import Rect
from repro.core.query import SnapshotPDRQuery
from repro.experiments.config import PROFILES, VARRHO_SWEEP
from repro.experiments.datasets import get_world, medium_world_spec
from repro.histogram.density_histogram import DensityHistogram
from repro.histogram.filter import filter_query, neighborhood_radii
from repro.index.bx import BxTree
from repro.index.tree import TPRTree
from repro.methods.fr import FRMethod
from repro.motion.table import ObjectTable
from repro.storage.buffer import BufferPool
from tests.conftest import small_pages

DOMAIN = Rect(0.0, 0.0, 100.0, 100.0)
HORIZON = 6


def build_world(n, seed, clustered=True, buffer_pages=8):
    table = ObjectTable()
    hist = DensityHistogram(DOMAIN, m=20, horizon=HORIZON)  # cell edge 5
    pool = BufferPool(capacity_pages=buffer_pages)
    with small_pages(8):
        tree = TPRTree(table, horizon=HORIZON, buffer_pool=pool)
    table.add_listener(hist)
    table.add_listener(tree)
    gen = np.random.default_rng(seed)
    for oid in range(n):
        if clustered and oid % 2 == 0:
            x, y = gen.normal([40.0, 60.0], 4.0, size=2)
            x, y = float(np.clip(x, 1, 99)), float(np.clip(y, 1, 99))
        else:
            x, y = float(gen.uniform(1, 99)), float(gen.uniform(1, 99))
        table.report(oid, x, y, float(gen.uniform(-2, 2)), float(gen.uniform(-2, 2)))
    return table, hist, tree


class TestNeighborhoodRadii:
    def test_paper_example(self):
        # l = 10, cell edge 2: l/(2 lc) = 2.5 -> eta_l = 2, eta_h = 3
        # (Figure 4's caption: eta_l = 2, eta_h = 3).
        assert neighborhood_radii(10.0, 2.0) == (2, 3)

    def test_exact_multiple(self):
        assert neighborhood_radii(10.0, 2.5) == (2, 2)

    def test_boundary_cell_edge_half_l(self):
        assert neighborhood_radii(10.0, 5.0) == (1, 1)

    def test_cell_too_coarse_raises(self):
        with pytest.raises(InvalidParameterError):
            neighborhood_radii(10.0, 6.0)


class TestFilterStep:
    def test_classification_partitions_cells(self):
        _table, hist, _tree = build_world(60, seed=0)
        query = SnapshotPDRQuery(rho=0.05, l=10.0, qt=0)
        result = filter_query(hist, query)
        total = result.accepted_count + result.rejected_count + result.candidate_count
        assert total == hist.m * hist.m
        assert not (result.accepted & result.rejected).any()
        assert not (result.accepted & result.candidate).any()

    def test_accepted_cells_truly_dense(self):
        table, hist, _tree = build_world(80, seed=1)
        query = SnapshotPDRQuery(rho=0.04, l=10.0, qt=0)
        result = filter_query(hist, query)
        positions = [(x, y) for (_o, x, y) in table.positions_at(0)]
        from repro.core.geometry import point_in_square

        for (i, j) in zip(*np.nonzero(result.accepted)):
            cell = hist.cell_rect(int(i), int(j))
            # Probe the cell corners and centre: all must be dense.
            probes = [
                (cell.x1, cell.y1),
                (cell.center.x, cell.center.y),
                (cell.x2 - 1e-6, cell.y2 - 1e-6),
            ]
            for px, py in probes:
                count = sum(
                    1 for ox, oy in positions if point_in_square(ox, oy, px, py, 10.0)
                )
                assert count >= query.min_count - 1e-9

    def test_rejected_cells_truly_not_dense(self):
        table, hist, _tree = build_world(80, seed=2)
        query = SnapshotPDRQuery(rho=0.04, l=10.0, qt=0)
        result = filter_query(hist, query)
        positions = [(x, y) for (_o, x, y) in table.positions_at(0)]
        from repro.core.geometry import point_in_square

        gen = np.random.default_rng(3)
        rejected = result.rejected
        for (i, j) in zip(*rejected.nonzero()):
            cell = hist.cell_rect(int(i), int(j))
            for _ in range(3):
                px = float(gen.uniform(cell.x1, cell.x2))
                py = float(gen.uniform(cell.y1, cell.y2))
                count = sum(
                    1 for ox, oy in positions if point_in_square(ox, oy, px, py, 10.0)
                )
                assert count < query.min_count - 1e-9

    def test_zero_threshold_accepts_everything(self):
        _table, hist, _tree = build_world(10, seed=4)
        result = filter_query(hist, SnapshotPDRQuery(rho=0.0, l=10.0, qt=0))
        assert result.accepted_count == hist.m * hist.m


class TestFRMatchesBruteForce:
    @given(
        st.integers(5, 60),
        st.integers(0, 10_000),
        st.floats(0.01, 0.08),
        st.integers(0, HORIZON),
    )
    @settings(max_examples=25, deadline=None)
    def test_exactness(self, n, seed, rho, qt):
        table, hist, tree = build_world(n, seed=seed)
        fr = FRMethod(hist, tree)
        query = SnapshotPDRQuery(rho=rho, l=10.0, qt=qt)
        got = fr.query(query)
        want = bruteforce_from_motions(table.columns(), DOMAIN, query)
        assert got.regions.symmetric_difference_area(want.regions) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_exactness_with_larger_l(self):
        table, hist, tree = build_world(50, seed=9)
        fr = FRMethod(hist, tree)
        query = SnapshotPDRQuery(rho=0.01, l=30.0, qt=2)
        got = fr.query(query)
        want = bruteforce_from_motions(table.columns(), DOMAIN, query)
        assert got.regions.symmetric_difference_area(want.regions) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_empty_world(self):
        table = ObjectTable()
        hist = DensityHistogram(DOMAIN, m=20, horizon=HORIZON)
        with small_pages(8):
            tree = TPRTree(table, horizon=HORIZON)
        table.add_listener(hist)
        table.add_listener(tree)
        fr = FRMethod(hist, tree)
        result = fr.query(SnapshotPDRQuery(rho=0.01, l=10.0, qt=0))
        assert result.regions.is_empty()


class TestFRBatchedRefinement:
    @given(st.integers(10, 70), st.integers(0, 10_000), st.floats(0.02, 0.07))
    @settings(max_examples=15, deadline=None)
    def test_batched_answer_identical(self, n, seed, rho):
        """Coalescing candidate cells never changes the exact answer."""
        table, hist, tree = build_world(n, seed=seed)
        query = SnapshotPDRQuery(rho=rho, l=10.0, qt=2)
        batched = FRMethod(hist, tree).query(query)
        exact = bruteforce_from_motions(table.columns(), DOMAIN, query)
        assert exact.regions.symmetric_difference_area(batched.regions) == 0.0

    def test_batching_issues_fewer_range_queries(self):
        table, hist, tree = build_world(120, seed=3)
        query = SnapshotPDRQuery(rho=0.03, l=10.0, qt=0)
        filtered = filter_query(hist, query)
        band_row, strip_band, x1s, x2s, rows = FRMethod(hist, tree)._plan_rows(
            filtered.candidate
        )
        if filtered.candidate_count > 1:
            assert band_row.size < filtered.candidate_count  # one fetch per row
        assert np.array_equal(band_row, np.flatnonzero(filtered.candidate.any(axis=0)))
        assert np.array_equal(rows, filtered.candidate[:, band_row].T)
        assert np.array_equal(np.unique(strip_band), np.arange(band_row.size))
        area_cells = filtered.candidate_region().area()
        area_strips = float((x2s - x1s).sum()) * hist.cell_edge_y
        assert area_strips == pytest.approx(area_cells)


# Quarter-cell lattice (cell edge 5): objects on cell edges, on each
# other's ``o ± l/2`` stopping events, and on both domain edges.
lattice_coord = st.integers(0, 80).map(lambda k: k * 1.25)


class TestFRIsIndexIndependent:
    """FR needs two things of an index — ``range_positions_batch`` (an
    ``(R, 4)`` array of closed windows and their timestamps in, the CSR
    columns ``(offsets, px, py)`` out) and ``buffer`` — and answers the
    same over any that has them."""

    @staticmethod
    def world(points):
        table = ObjectTable()
        hist = DensityHistogram(DOMAIN, m=20, horizon=HORIZON)
        with small_pages(8):
            tpr = TPRTree(table, horizon=HORIZON)
            bx = BxTree(table, DOMAIN, horizon=HORIZON, phase_length=3, bits=6)
        for listener in (hist, tpr, bx):
            table.add_listener(listener)
        for oid, (x, y, vx, vy) in enumerate(points):
            if DOMAIN.contains_point(x, y):
                table.report(oid, x, y, vx, vy)
        return table, hist, tpr, bx

    @given(
        st.lists(
            st.tuples(
                lattice_coord,
                lattice_coord,
                st.sampled_from([-1.25, 0.0, 0.0, 1.25]),
                st.sampled_from([-1.25, 0.0, 0.0, 1.25]),
            ),
            min_size=1,
            max_size=60,
        ),
        st.integers(0, 6),
        st.integers(0, 3),
    )
    @settings(max_examples=30, deadline=None)
    def test_bx_equals_tpr_equals_bruteforce(self, points, count, qt):
        table, hist, tpr, bx = self.world(points)
        query = SnapshotPDRQuery(rho=count / 100.0, l=10.0, qt=qt)
        exact = bruteforce_from_motions(table.columns(), DOMAIN, query)
        for index in (tpr, bx):
            got = FRMethod(hist, index).query(query)
            assert got.regions.symmetric_difference_area(exact.regions) == 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_both_indexes_return_the_same_csr_columns(self, seed):
        gen = np.random.default_rng(seed)
        points = [
            (float(x), float(y), float(vx), float(vy))
            for x, y, vx, vy in zip(
                gen.uniform(0, 100, 40), gen.uniform(0, 100, 40),
                gen.uniform(-1, 1, 40), gen.uniform(-1, 1, 40),
            )
        ]
        _table, _hist, tpr, bx = self.world(points)
        corner = gen.uniform(0, 70, (5, 2))
        rects = np.hstack([corner, corner + gen.uniform(5, 30, (5, 2))])
        rects[4] = (200.0, 200.0, 210.0, 210.0)  # answers nothing
        qts = gen.integers(0, 4, 5).astype(float)
        a_off, a_x, a_y = tpr.range_positions_batch(rects, qts)
        b_off, b_x, b_y = bx.range_positions_batch(rects, qts)
        # same contract, same contents; the visit order is each index's own
        assert np.array_equal(a_off, b_off) and a_off.shape == (6,)
        assert a_off[0] == 0 and a_off[-1] == a_x.size == a_y.size
        for r in range(5):
            window = slice(a_off[r], a_off[r + 1])
            assert sorted(zip(a_x[window], a_y[window])) == sorted(
                zip(b_x[window], b_y[window])
            )
        empty = tpr.range_positions_batch(np.empty((0, 4)), np.empty(0))
        assert [column.tolist() for column in empty] == [[0], [], []]

    def test_bx_insert_between_queries_changes_the_answer(self):
        """Nothing of the first query outlives it.  The histogram is fed one
        object ahead of the B^x-tree, so the filter sees the same candidates
        both times and only the index contents move between the two
        queries: the second answer must come from the second fetch."""
        ahead, behind = ObjectTable(), ObjectTable()
        hist = DensityHistogram(DOMAIN, m=20, horizon=HORIZON)
        ahead.add_listener(hist)
        with small_pages(8):
            bx = BxTree(behind, DOMAIN, horizon=HORIZON, phase_length=3, bits=6)
        behind.add_listener(bx)
        # Three cells, one l-square: candidates for the filter, never accepted.
        trio = [
            (oid, x, y, 0.0, 0.0)
            for oid, (x, y) in enumerate([(11.0, 11.0), (17.0, 11.0), (14.0, 17.0)])
        ]
        ahead.report_batch(trio)
        behind.report_batch(trio[:2])
        fr = FRMethod(hist, bx)
        query = SnapshotPDRQuery(rho=0.03, l=10.0, qt=0)  # 3 objects per square
        before = fr.query(query)
        assert before.stats.extra["refine_bands"] > 0.0
        assert before.regions.is_empty()
        behind.report(*trio[2])
        after = fr.query(query)
        exact = bruteforce_from_motions(ahead.columns(), DOMAIN, query)
        assert not exact.regions.is_empty()
        assert after.regions.symmetric_difference_area(exact.regions) == 0.0


@pytest.fixture(scope="module")
def smoke_world():
    profile = PROFILES["smoke"]
    return get_world(medium_world_spec(profile), profile.raster_resolution)


def figure_10a_queries(world):
    """Figure 10(a)'s loop at l = 30: ϱ ascending over fixed ``qt``s."""
    return [
        world.server.make_query(qt=qt, l=30.0, varrho=varrho)
        for varrho in VARRHO_SWEEP
        for qt in world.query_times(PROFILES["smoke"].n_queries)
    ]


def test_fr_work_is_independent_of_query_order(smoke_world):
    """An FR query leaves nothing behind: its answer and its work depend on
    the histogram, the index and the query, not on the queries before it."""
    server = smoke_world.server
    queries = figure_10a_queries(smoke_world)
    fr = FRMethod(server.histogram, server.tree)
    before = dict(vars(fr))
    for query in queries:
        shared = fr.query(query)
        fresh = FRMethod(server.histogram, server.tree).query(query)
        assert np.array_equal(shared.regions.bounds, fresh.regions.bounds)
        assert shared.stats.extra["refine_bands"] > 0.0
        for counter in ("refine_bands", "refine_segments"):
            assert shared.stats.extra[counter] == fresh.stats.extra[counter]
        assert shared.stats.objects_examined == fresh.stats.objects_examined
    for query in queries:
        fr.query(query)
    after = vars(fr)
    assert list(after) == list(before) == ["histogram", "tree", "faults"]
    assert all(after[name] is before[name] for name in before)


def test_concurrent_fr_queries_return_the_serial_answers(smoke_world):
    server = smoke_world.server
    queries = figure_10a_queries(smoke_world)
    fr = FRMethod(server.histogram, server.tree)
    serial = [fr.query(query) for query in queries]
    with ThreadPoolExecutor(max_workers=4) as pool:
        runs = list(pool.map(lambda _: [fr.query(q) for q in queries], range(4)))
    for answers in runs:
        for got, want in zip(answers, serial):
            assert np.array_equal(got.regions.bounds, want.regions.bounds)
            assert got.stats.extra["refine_bands"] == want.stats.extra["refine_bands"]


class TestFRStats:
    def test_stats_populated(self):
        _table, hist, tree = build_world(80, seed=5)
        fr = FRMethod(hist, tree)
        result = fr.query(SnapshotPDRQuery(rho=0.03, l=10.0, qt=0))
        stats = result.stats
        assert stats.method == "fr"
        assert stats.accepted_cells + stats.rejected_cells + stats.candidate_cells == 400
        assert stats.cpu_seconds > 0.0
        if stats.candidate_cells:
            assert stats.io_count > 0
            assert stats.io_seconds == pytest.approx(stats.io_count * 0.01)

    def test_no_buffer_pool_means_no_io_charge(self):
        table = ObjectTable()
        hist = DensityHistogram(DOMAIN, m=20, horizon=HORIZON)
        with small_pages(8):
            tree = TPRTree(table, horizon=HORIZON, buffer_pool=None)
        table.add_listener(hist)
        table.add_listener(tree)
        gen = np.random.default_rng(0)
        for oid in range(40):
            table.report(oid, float(gen.uniform(1, 99)), float(gen.uniform(1, 99)),
                         0.0, 0.0)
        fr = FRMethod(hist, tree)
        result = fr.query(SnapshotPDRQuery(rho=0.02, l=10.0, qt=0))
        assert result.stats.io_count == 0
        assert result.stats.io_seconds == 0.0

    def test_requires_components(self):
        with pytest.raises(InvalidParameterError):
            FRMethod(None, None)
