"""Tests for the plane-sweep refinement (Algorithms 2-3, Lemmas 1-2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidParameterError
from repro.core.geometry import Rect, point_in_square
from repro.core.regions import RegionSet
from repro.sweep.plane_sweep import dense_segments_1d, refine_cell

CELL = Rect(0.0, 0.0, 100.0, 100.0)


def brute_dense_mask(positions, cell, l, min_count, probes):
    """Reference density test on a list of probe points."""
    out = []
    for px, py in probes:
        count = sum(
            1 for ox, oy in positions if point_in_square(ox, oy, px, py, l)
        )
        out.append(count >= min_count - 1e-9)
    return out


class TestDenseSegments1D:
    def test_empty_objects_zero_threshold(self):
        assert dense_segments_1d(np.array([]), 5.0, 0.0, 10.0, 0.0) == [(0.0, 10.0)]

    def test_empty_objects_positive_threshold(self):
        assert dense_segments_1d(np.array([]), 5.0, 0.0, 10.0, 1.0) == []

    def test_single_object(self):
        # Object at 50, half=5: centres in [45, 55) cover it.
        segs = dense_segments_1d(np.array([50.0]), 5.0, 0.0, 100.0, 1.0)
        assert segs == [(45.0, 55.0)]

    def test_single_object_clipped(self):
        segs = dense_segments_1d(np.array([2.0]), 5.0, 0.0, 100.0, 1.0)
        assert segs == [(0.0, 7.0)]

    def test_two_objects_need_both(self):
        # Objects at 48 and 52, half=5: both covered for c in [47, 53).
        segs = dense_segments_1d(np.array([48.0, 52.0]), 5.0, 0.0, 100.0, 2.0)
        assert len(segs) == 1
        lo, hi = segs[0]
        assert lo == pytest.approx(47.0)
        assert hi == pytest.approx(53.0)

    def test_merges_touching_segments(self):
        # Two objects far enough apart that single-coverage regions touch.
        segs = dense_segments_1d(np.array([45.0, 55.0]), 5.0, 0.0, 100.0, 1.0)
        assert segs == [(40.0, 60.0)]

    def test_disjoint_segments(self):
        segs = dense_segments_1d(np.array([20.0, 80.0]), 5.0, 0.0, 100.0, 1.0)
        assert segs == [(15.0, 25.0), (75.0, 85.0)]

    def test_count_at_left_boundary(self):
        # Object whose coverage interval starts exactly at lo.
        segs = dense_segments_1d(np.array([5.0]), 5.0, 0.0, 100.0, 1.0)
        assert segs[0][0] == 0.0

    @pytest.mark.parametrize(
        "coords, half, lo, hi, min_count, want",
        [
            ([5.0], 1.0, 10.0, 10.0, 0.0, []),  # empty span
            ([5.0, 5.0, 5.0], 2.0, 0.0, 10.0, 3.0, [(3.0, 7.0)]),  # all events tie
            # exit of one object and enter of the next on the same coordinate
            ([0.0, 10.0], 5.0, 0.0, 10.0, 1.0, [(0.0, 10.0)]),
        ],
    )
    def test_event_ties(self, coords, half, lo, hi, min_count, want):
        assert dense_segments_1d(np.array(coords), half, lo, hi, min_count) == want

    @given(
        st.lists(st.floats(0, 100), max_size=15),
        st.floats(1, 20),
        st.integers(1, 4),
        st.integers(0, 200),
    )
    @settings(max_examples=80)
    def test_against_pointwise_check(self, coords, half, min_count, probe_int):
        """Segment membership == brute-force cover count at probe points."""
        probe = probe_int / 2.0
        coords_arr = np.array(coords, dtype=float)
        segs = dense_segments_1d(coords_arr, half, 0.0, 100.0, float(min_count))
        in_segs = any(lo <= probe < hi for lo, hi in segs)
        count = int(np.sum((coords_arr - half <= probe) & (probe < coords_arr + half)))
        assert in_segs == (count >= min_count and 0.0 <= probe < 100.0)


class TestRefineCellBasics:
    def test_invalid_l(self):
        with pytest.raises(InvalidParameterError):
            refine_cell([], CELL, -1.0, 1.0)

    def test_empty_cell(self):
        assert refine_cell([(1, 1)], Rect(5, 5, 5, 9), 10.0, 1.0).is_empty()

    def test_no_objects_positive_threshold(self):
        assert refine_cell([], CELL, 10.0, 1.0).is_empty()

    def test_no_objects_zero_threshold(self):
        region = refine_cell([], CELL, 10.0, 0.0)
        assert region.area() == pytest.approx(CELL.area)

    def test_single_object_square(self):
        region = refine_cell([(50.0, 50.0)], CELL, 10.0, 1.0)
        # Influence region: [45, 55) x [45, 55).
        assert region.area() == pytest.approx(100.0)
        assert region.contains_point(45.0, 45.0)
        assert region.contains_point(54.9, 54.9)
        assert not region.contains_point(55.0, 50.0)
        assert not region.contains_point(44.9, 50.0)

    def test_figure1a_answer_loss_scenario(self):
        """Four objects around a cell corner: PDR finds the dense square.

        This is the paper's Figure 1(a): none of the four unit cells holds
        rho objects, but the dashed square straddling the corner does.
        """
        l = 10.0
        objects = [(48.0, 48.0), (52.0, 48.0), (48.0, 52.0), (52.0, 52.0)]
        region = refine_cell(objects, CELL, l, 4.0)
        assert not region.is_empty()
        # The centre point (50, 50) covers all four objects.
        assert region.contains_point(50.0, 50.0)
        # A far-away point does not.
        assert not region.contains_point(20.0, 20.0)

    def test_local_density_guarantee(self):
        """Figure 1(c): a region dense on average but empty near a corner
        must exclude the empty corner (PDR's local-density guarantee)."""
        gen = np.random.default_rng(5)
        # 12 objects packed in [40,46]^2; nothing near (60, 60).
        objects = [
            (float(gen.uniform(40, 46)), float(gen.uniform(40, 46)))
            for _ in range(12)
        ]
        region = refine_cell(objects, CELL, 10.0, 6.0)
        assert region.contains_point(43.0, 43.0)
        assert not region.contains_point(60.0, 60.0)

    def test_result_clipped_to_cell(self):
        region = refine_cell([(1.0, 1.0)], Rect(0, 0, 10, 10), 30.0, 1.0)
        box = region.bounding_box()
        assert box is not None
        assert Rect(0, 0, 10, 10).contains_rect(box)

    def test_objects_outside_cell_still_count(self):
        # An object left of the cell influences the cell's left margin.
        region = refine_cell([(-2.0, 50.0)], Rect(0, 0, 10, 100), 10.0, 1.0)
        assert region.contains_point(0.0, 50.0)
        assert region.contains_point(2.9, 50.0)
        assert not region.contains_point(3.0, 50.0)


class TestRefineCellAgainstBruteForce:
    @given(
        st.lists(
            st.tuples(st.floats(-10, 110), st.floats(-10, 110)), max_size=20
        ),
        st.floats(4, 40),
        st.integers(1, 5),
        st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_membership_matches_pointwise_density(self, positions, l, min_count, seed):
        region = refine_cell(positions, CELL, l, float(min_count))
        gen = np.random.default_rng(seed)
        probes = [(float(gen.uniform(0, 100)), float(gen.uniform(0, 100)))
                  for _ in range(40)]
        expected = brute_dense_mask(positions, CELL, l, min_count, probes)
        actual = [region.contains_point(px, py) for px, py in probes]
        assert actual == expected

    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 50)).map(
                lambda t: (float(t[0] * 2), float(t[1] * 2))
            ),
            max_size=15,
        ),
        st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_on_event_boundaries(self, positions, min_count):
        """Probe exactly at sweep-event coordinates (half-open edges)."""
        l = 10.0
        region = refine_cell(positions, CELL, l, float(min_count))
        probes = []
        for ox, oy in positions[:5]:
            probes.extend(
                [
                    (ox - l / 2, oy - l / 2),
                    (ox + l / 2, oy + l / 2),
                    (ox - l / 2, oy),
                    (ox, oy + l / 2),
                ]
            )
        probes = [(px, py) for px, py in probes if 0 <= px < 100 and 0 <= py < 100]
        expected = brute_dense_mask(positions, CELL, l, min_count, probes)
        actual = [region.contains_point(px, py) for px, py in probes]
        assert actual == expected

    @given(
        st.lists(st.tuples(st.floats(0, 100), st.floats(0, 100)), max_size=25),
        st.floats(5, 30),
    )
    @settings(max_examples=40, deadline=None)
    def test_area_monotone_in_threshold(self, positions, l):
        areas = [
            refine_cell(positions, CELL, l, float(k)).area() for k in (1, 2, 3)
        ]
        assert areas[0] >= areas[1] >= areas[2]

    @given(
        st.lists(
            st.one_of(
                st.tuples(st.floats(-10, 110), st.floats(-10, 110)),
                # a lattice, so enter and exit events coincide
                st.tuples(st.integers(0, 20), st.integers(0, 20)).map(
                    lambda t: (float(t[0] * 5), float(t[1] * 5))
                ),
            ),
            max_size=25,
        ),
        st.sampled_from([5.0, 10.0, 17.5, 30.0]),
        st.integers(0, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_answer_is_disjoint(self, positions, l, min_count):
        """The answer's summed member area (its ``disjoint=True`` fast path)
        equals the rasterised area of the union of the same bounds."""
        region = refine_cell(positions, CELL, l, float(min_count))
        union = RegionSet.from_bounds(region.bounds).area()
        assert region.area() == pytest.approx(union, rel=1e-9)
