"""Unit and property tests for the RegionSet area algebra."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import regions
from repro.core.geometry import Rect
from repro.core.regions import RegionSet


def _int_rect(x1, y1, w, h):
    return Rect(float(x1), float(y1), float(x1 + w), float(y1 + h))


# Small random rectangle sets on an integer grid so brute-force cell counting
# is exact and fast.
rect_strategy = st.builds(
    _int_rect,
    st.integers(0, 15),
    st.integers(0, 15),
    st.integers(1, 6),
    st.integers(1, 6),
)
rect_sets = st.lists(rect_strategy, max_size=8).map(RegionSet)


def brute_area(region: RegionSet, op_region: RegionSet = None, op: str = "a") -> float:
    """Reference area via unit-cell counting on the integer grid."""
    grid_a = np.zeros((25, 25), dtype=bool)
    grid_b = np.zeros((25, 25), dtype=bool)
    for r in region:
        grid_a[int(r.x1) : int(r.x2), int(r.y1) : int(r.y2)] = True
    if op_region is not None:
        for r in op_region:
            grid_b[int(r.x1) : int(r.x2), int(r.y1) : int(r.y2)] = True
    combos = {
        "a": grid_a,
        "and": grid_a & grid_b,
        "or": grid_a | grid_b,
        "diff": grid_a & ~grid_b,
        "xor": grid_a ^ grid_b,
    }
    return float(combos[op].sum())


class TestConstruction:
    def test_empty(self):
        rs = RegionSet()
        assert rs.is_empty()
        assert len(rs) == 0
        assert not rs
        assert rs.area() == 0.0
        assert rs.bounding_box() is None

    def test_drops_empty_rects(self):
        rs = RegionSet([Rect(0, 0, 0, 5), Rect(1, 1, 2, 2)])
        assert len(rs) == 1

    def test_iteration_and_bool(self):
        rs = RegionSet([Rect(0, 0, 1, 1)])
        assert bool(rs)
        assert list(rs) == [Rect(0, 0, 1, 1)]


class TestMeasures:
    def test_single_rect_area(self):
        assert RegionSet([Rect(0, 0, 3, 4)]).area() == pytest.approx(12.0)

    def test_disjoint_union_area(self):
        rs = RegionSet([Rect(0, 0, 1, 1), Rect(5, 5, 7, 6)])
        assert rs.area() == pytest.approx(3.0)

    def test_overlap_counted_once(self):
        rs = RegionSet([Rect(0, 0, 2, 2), Rect(1, 1, 3, 3)])
        assert rs.area() == pytest.approx(7.0)

    def test_duplicate_rects_counted_once(self):
        rs = RegionSet([Rect(0, 0, 2, 2), Rect(0, 0, 2, 2)])
        assert rs.area() == pytest.approx(4.0)

    def test_intersection_area(self):
        a = RegionSet([Rect(0, 0, 4, 4)])
        b = RegionSet([Rect(2, 2, 6, 6)])
        assert a.intersection_area(b) == pytest.approx(4.0)

    def test_difference_area(self):
        a = RegionSet([Rect(0, 0, 4, 4)])
        b = RegionSet([Rect(2, 0, 6, 4)])
        assert a.difference_area(b) == pytest.approx(8.0)
        assert b.difference_area(a) == pytest.approx(8.0)

    def test_symmetric_difference(self):
        a = RegionSet([Rect(0, 0, 4, 4)])
        b = RegionSet([Rect(2, 0, 6, 4)])
        assert a.symmetric_difference_area(b) == pytest.approx(16.0)

    def test_union_area(self):
        a = RegionSet([Rect(0, 0, 4, 4)])
        b = RegionSet([Rect(2, 0, 6, 4)])
        assert a.union_area(b) == pytest.approx(24.0)

    def test_equals_region(self):
        a = RegionSet([Rect(0, 0, 2, 2), Rect(2, 0, 4, 2)])
        b = RegionSet([Rect(0, 0, 4, 2)])
        assert a.equals_region(b)
        assert not a.equals_region(RegionSet([Rect(0, 0, 4, 2.5)]))


class TestPredicates:
    def test_contains_point(self):
        rs = RegionSet([Rect(0, 0, 2, 2), Rect(10, 10, 12, 12)])
        assert rs.contains_point(1, 1)
        assert rs.contains_point(11, 11)
        assert not rs.contains_point(5, 5)
        assert not rs.contains_point(2, 1)  # half-open high edge

    def test_intersects_rect(self):
        rs = RegionSet([Rect(0, 0, 2, 2)])
        assert rs.intersects_rect(Rect(1, 1, 3, 3))
        assert not rs.intersects_rect(Rect(2, 0, 3, 2))


class TestConstructions:
    def test_union_concatenates(self):
        a = RegionSet([Rect(0, 0, 1, 1)])
        b = RegionSet([Rect(5, 5, 6, 6)])
        assert len(a.union(b)) == 2

    def test_translated(self):
        rs = RegionSet([Rect(0, 0, 1, 1)]).translated(10, 20)
        assert rs.rects[0] == Rect(10, 20, 11, 21)

    def test_clipped_to(self):
        rs = RegionSet([Rect(0, 0, 10, 10)]).clipped_to(Rect(5, 5, 20, 20))
        assert rs.area() == pytest.approx(25.0)

    def test_bounding_box(self):
        rs = RegionSet([Rect(0, 0, 1, 1), Rect(4, -1, 5, 3)])
        assert rs.bounding_box() == Rect(0, -1, 5, 3)


class TestNormalized:
    def test_normalized_preserves_area(self):
        rs = RegionSet([Rect(0, 0, 2, 2), Rect(1, 1, 3, 3), Rect(0, 0, 1, 3)])
        norm = rs.normalized()
        assert norm.area() == pytest.approx(rs.area())

    def test_normalized_is_disjoint(self):
        rs = RegionSet([Rect(0, 0, 2, 2), Rect(1, 1, 3, 3)])
        norm = rs.normalized()
        for i, a in enumerate(norm):
            for b in list(norm)[i + 1 :]:
                assert not a.intersects(b)

    def test_normalized_merges_adjacent(self):
        rs = RegionSet([Rect(0, 0, 1, 1), Rect(1, 0, 2, 1)])
        assert len(rs.normalized()) == 1

    def test_normalized_empty(self):
        assert RegionSet().normalized().is_empty()

    @given(rect_sets)
    @settings(max_examples=40)
    def test_normalized_equivalent(self, rs):
        norm = rs.normalized()
        assert norm.area() == pytest.approx(rs.area())
        assert rs.symmetric_difference_area(norm) == pytest.approx(0.0, abs=1e-9)


class TestPropertyAgainstBruteForce:
    @given(rect_sets)
    @settings(max_examples=60)
    def test_union_area(self, a):
        assert a.area() == pytest.approx(brute_area(a))

    @given(rect_sets, rect_sets)
    @settings(max_examples=60)
    def test_pairwise_measures(self, a, b):
        assert a.intersection_area(b) == pytest.approx(brute_area(a, b, "and"))
        assert a.union_area(b) == pytest.approx(brute_area(a, b, "or"))
        assert a.difference_area(b) == pytest.approx(brute_area(a, b, "diff"))
        assert a.symmetric_difference_area(b) == pytest.approx(brute_area(a, b, "xor"))

    @given(rect_sets, rect_sets)
    @settings(max_examples=40)
    def test_inclusion_exclusion(self, a, b):
        assert a.union_area(b) == pytest.approx(
            a.area() + b.area() - a.intersection_area(b)
        )

    @given(rect_sets, rect_sets)
    @settings(max_examples=40)
    def test_symmetry(self, a, b):
        assert a.intersection_area(b) == pytest.approx(b.intersection_area(a))
        assert a.union_area(b) == pytest.approx(b.union_area(a))


float_rect_sets = st.lists(
    st.tuples(
        st.floats(0, 50), st.floats(0, 50), st.floats(0.01, 20), st.floats(0.01, 20)
    ).map(lambda t: (t[0], t[1], t[0] + t[2], t[1] + t[3])),
    max_size=10,
).map(lambda rows: RegionSet.from_bounds(np.array(rows, dtype=float).reshape(-1, 4)))


class TestChunkedMeasures:
    """A measure cut into one x-row per chunk adds the same floats as one
    chunk: each row's length is reduced alone and the rows are summed once."""

    @staticmethod
    def measures(a, b):
        return (
            a.area(),
            a.intersection_area(b),
            a.union_area(b),
            a.difference_area(b),
            a.symmetric_difference_area(b),
        )

    @given(float_rect_sets, float_rect_sets)
    @settings(max_examples=100, deadline=None)
    def test_row_chunks_equal_one_chunk(self, a, b):
        one_chunk = self.measures(a, b)
        with pytest.MonkeyPatch.context() as mp:
            # a budget of a few cells: every chunk is a single x-row
            mp.setattr(regions, "_RASTER_BUDGET_BYTES", 3 * regions._RASTER_BYTES_PER_CELL)
            assert self.measures(a, b) == one_chunk

    def test_chunks_actually_split(self, monkeypatch):
        """The patched budget cuts a many-row grid into one chunk per row."""
        calls = []
        raster = RegionSet._clipped_raster_bounds
        a = RegionSet([Rect(i, 0.0, i + 1.5, 1.0) for i in range(6)])
        b = RegionSet([Rect(0.5, 0.5, 4.0, 2.0)])
        one_chunk = self.measures(a, b)
        monkeypatch.setattr(regions, "_RASTER_BUDGET_BYTES", regions._RASTER_BYTES_PER_CELL)

        def counting(*args):
            calls.append(args)
            return raster(*args)

        monkeypatch.setattr(RegionSet, "_clipped_raster_bounds", staticmethod(counting))
        assert a.intersection_area(b) == one_chunk[1]
        xs = np.unique(np.concatenate([a.bounds[:, (0, 2)], b.bounds[:, (0, 2)]]))
        assert len(calls) == 2 * (len(xs) - 1)  # both operands, one x-row per chunk


class TestRasterBounds:
    """``_raster_bounds`` scatters every rectangle's four corners into one
    difference array; its mask must be the per-rectangle slice assignment."""

    @staticmethod
    def slice_oracle(bounds, xs, ys):
        mask = np.zeros((max(len(xs) - 1, 0), max(len(ys) - 1, 0)), dtype=bool)
        for x1, y1, x2, y2 in bounds.tolist():
            ix1, ix2 = np.searchsorted(xs, [x1, x2])
            iy1, iy2 = np.searchsorted(ys, [y1, y2])
            mask[ix1:ix2, iy1:iy2] = True
        return mask

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 10), st.integers(0, 10), st.integers(0, 4), st.integers(0, 4)
            ),
            max_size=12,
        ),
        st.lists(st.integers(-2, 16), max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    @example(  # duplicate, overlap, touching along x = 4, zero width, zero height
        [(0, 0, 4, 4), (0, 0, 4, 4), (2, 2, 4, 4), (4, 0, 2, 2), (1, 5, 0, 4), (7, 7, 2, 0)], []
    )
    def test_mask_equals_slice_assignment(self, rects, extra_edges):
        """Overlapping, touching (shared edges, duplicates) and degenerate
        (zero width or height) rectangles over their own edges plus a few
        extra grid lines."""
        bounds = np.array(
            [(x, y, x + w, y + h) for x, y, w, h in rects], dtype=float
        ).reshape(-1, 4)
        xs = np.unique(np.concatenate([bounds[:, (0, 2)].ravel(), extra_edges]).astype(float))
        ys = np.unique(np.concatenate([bounds[:, (1, 3)].ravel(), extra_edges]).astype(float))
        got = RegionSet._raster_bounds(bounds, xs, ys)
        want = self.slice_oracle(bounds, xs, ys)
        assert got.dtype == bool and np.array_equal(got, want)
