"""Tests for time-parameterized bounding rectangles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import IndexError_
from repro.core.geometry import Rect
from repro.index.tpbr import TPBR
from repro.motion.model import Motion

motion_strategy = st.builds(
    Motion,
    oid=st.integers(0, 1000),
    t_ref=st.integers(0, 10),
    x=st.floats(-100, 100),
    y=st.floats(-100, 100),
    vx=st.floats(-3, 3),
    vy=st.floats(-3, 3),
)


def point(m: Motion) -> TPBR:
    return TPBR.point(m.t_ref, m.x, m.y, m.vx, m.vy)


class TestFromMotion:
    def test_tracks_object_exactly(self):
        m = Motion(0, 2, 10.0, 20.0, 1.0, -0.5)
        bound = point(m)
        for t in (2, 5, 10):
            x, y = m.position_at(t)
            r = bound.rect_at(t)
            assert r.x1 == pytest.approx(x)
            assert r.x2 == pytest.approx(x)
            assert r.y1 == pytest.approx(y)
            assert r.y2 == pytest.approx(y)

    def test_backward_anchor(self):
        m = Motion(0, 5, 10.0, 0.0, 2.0, 0.0)
        bound = TPBR.empty(0)
        bound.extend_tpbr(point(m))  # extrapolated back
        r = bound.rect_at(5)
        assert r.x1 == pytest.approx(10.0)


class TestEvaluation:
    def test_rect_at_grows_with_velocity_spread(self):
        bound = TPBR(0, 0, 0, 10, 10, -1, -1, 1, 1)
        r = bound.rect_at(5)
        assert r == Rect(-5, -5, 15, 15)

    def test_rect_at_before_anchor_raises(self):
        bound = TPBR(5, 0, 0, 1, 1, 0, 0, 0, 0)
        with pytest.raises(IndexError_):
            bound.rect_at(4)

    def test_area_at(self):
        bound = TPBR(0, 0, 0, 2, 3, 0, 0, 1, 0)
        assert bound.area_at(0) == pytest.approx(6.0)
        assert bound.area_at(2) == pytest.approx(12.0)

    def test_integral_area_matches_numeric(self):
        bound = TPBR(0, 0, 0, 2, 3, -0.5, 0, 1, 0.25)
        ts = np.linspace(1.0, 7.0, 20001)
        numeric = np.trapezoid([bound.area_at(t) for t in ts], ts)
        assert bound.integral_area(1.0, 7.0) == pytest.approx(numeric, rel=1e-5)

    def test_integral_area_empty_range_raises(self):
        bound = TPBR(0, 0, 0, 1, 1, 0, 0, 0, 0)
        with pytest.raises(IndexError_):
            bound.integral_area(5, 4)

    def test_intersects_rect_at_is_closed(self):
        bound = TPBR(0, 0, 0, 10, 10, 0, 0, 0, 0)
        # Touching boundaries count as intersecting (never prunes wrongly).
        assert bound.intersects_rect_at(Rect(10, 0, 20, 10), 0)
        assert not bound.intersects_rect_at(Rect(10.01, 0, 20, 10), 0)

    def test_intersects_moving(self):
        bound = TPBR(0, 0, 0, 1, 1, 1, 0, 1, 0)  # sliding right
        target = Rect(10, 0, 11, 1)
        assert not bound.intersects_rect_at(target, 0)
        assert bound.intersects_rect_at(target, 10)


class TestExtend:
    def test_extend_motion_contains_trajectory(self):
        bound = TPBR.empty(0)
        motions = [
            Motion(0, 0, 0.0, 0.0, 1.0, 0.0),
            Motion(1, 0, 5.0, 5.0, -1.0, 0.5),
        ]
        for m in motions:
            bound.extend_tpbr(point(m))
        for t in (0, 3, 12):
            r = bound.rect_at(t)
            for m in motions:
                x, y = m.position_at(t)
                assert r.x1 - 1e-9 <= x <= r.x2 + 1e-9
                assert r.y1 - 1e-9 <= y <= r.y2 + 1e-9

    def test_extend_tpbr_contains_operand(self):
        a = TPBR(0, 0, 0, 1, 1, -0.5, 0, 0.5, 0)
        b = TPBR(2, 10, 10, 12, 12, 0, -1, 0, 1)
        merged = a.copy()
        merged.extend_tpbr(b)
        for t in (2, 6, 20):
            outer = merged.rect_at(t)
            inner = b.rect_at(t)
            assert outer.x1 - 1e-9 <= inner.x1
            assert inner.x2 <= outer.x2 + 1e-9
            assert outer.y1 - 1e-9 <= inner.y1
            assert inner.y2 <= outer.y2 + 1e-9

    def test_extend_with_empty_is_noop(self):
        a = TPBR(0, 0, 0, 1, 1, 0, 0, 0, 0)
        before = a.copy()
        a.extend_tpbr(TPBR.empty(0))
        assert a == before

    def test_empty_flag(self):
        assert TPBR.empty(0).is_empty()
        assert not TPBR(0, 0, 0, 1, 1, 0, 0, 0, 0).is_empty()

    @given(st.lists(motion_strategy, min_size=1, max_size=8), st.integers(10, 40))
    @settings(max_examples=60)
    def test_bound_contains_all_motions_property(self, motions, t):
        bound = TPBR.empty(10)
        for m in motions:
            bound.extend_tpbr(point(m))
        r = bound.rect_at(float(t))
        for m in motions:
            x, y = m.position_at(float(t))
            assert r.x1 - 1e-6 <= x <= r.x2 + 1e-6
            assert r.y1 - 1e-6 <= y <= r.y2 + 1e-6

    @given(st.lists(motion_strategy, min_size=1, max_size=6))
    @settings(max_examples=40)
    def test_integral_area_nonnegative(self, motions):
        bound = TPBR.empty(10)
        for m in motions:
            bound.extend_tpbr(point(m))
        assert bound.integral_area(10, 30) >= 0.0
