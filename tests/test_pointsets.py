"""Tests for the free-space random-walk workloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import DatagenError
from repro.core.geometry import Rect
from repro.datagen.pointsets import (
    GaussianCluster,
    RandomWalkWorkload,
    _clip,
    clustered_workload,
    uniform_workload,
)
from repro.motion.table import ObjectTable

DOMAIN = Rect(0.0, 0.0, 100.0, 100.0)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(DatagenError):
            RandomWalkWorkload(DOMAIN, 0, 5)
        with pytest.raises(DatagenError):
            RandomWalkWorkload(DOMAIN, 5, 0)
        with pytest.raises(DatagenError):
            RandomWalkWorkload(DOMAIN, 5, 5, max_speed=0)
        with pytest.raises(DatagenError):
            GaussianCluster(0, 0, sigma=0)
        with pytest.raises(DatagenError):
            clustered_workload(DOMAIN, 5, 5, n_clusters=0)

    def test_double_initialize_rejected(self):
        table = ObjectTable()
        w = uniform_workload(DOMAIN, 10, 5)
        w.initialize(table)
        with pytest.raises(DatagenError):
            w.initialize(table)

    def test_run_requires_initialize(self):
        with pytest.raises(DatagenError):
            uniform_workload(DOMAIN, 10, 5).run_until(ObjectTable(), 3)


class TestBehaviour:
    def test_all_objects_reported(self):
        table = ObjectTable()
        w = uniform_workload(DOMAIN, 40, 5, seed=1)
        w.initialize(table)
        assert len(table) == 40

    def test_objects_stay_in_domain(self):
        table = ObjectTable()
        w = uniform_workload(DOMAIN, 50, 6, seed=2)
        w.initialize(table)
        w.run_until(table, 40)
        for _oid, x, y in table.positions_at(table.tnow):
            assert DOMAIN.x1 <= x <= DOMAIN.x2
            assert DOMAIN.y1 <= y <= DOMAIN.y2

    def test_reports_within_update_interval(self):
        table = ObjectTable()
        u = 4
        w = uniform_workload(DOMAIN, 30, u, seed=3)
        w.initialize(table)
        w.run_until(table, 3 * u)
        for motion in table.motions():
            assert table.tnow - motion.t_ref <= u

    def test_speed_bounded(self):
        table = ObjectTable()
        w = uniform_workload(DOMAIN, 40, 5, max_speed=2.0, seed=4)
        w.initialize(table)
        w.run_until(table, 10)
        for motion in table.motions():
            assert motion.speed <= 2.0 + 1e-9

    def test_clustered_placement_is_skewed(self):
        table = ObjectTable()
        w = clustered_workload(DOMAIN, 400, 5, n_clusters=2, seed=5)
        w.initialize(table)
        xs = np.array([x for _o, x, _y in table.positions_at(0)])
        ys = np.array([y for _o, _x, y in table.positions_at(0)])
        # A strongly clustered set has much lower dispersion than uniform.
        uniform_std = 100.0 / np.sqrt(12)
        assert xs.std() < uniform_std or ys.std() < uniform_std

    def test_deterministic_given_seed(self):
        t1, t2 = ObjectTable(), ObjectTable()
        clustered_workload(DOMAIN, 30, 5, seed=7).initialize(t1)
        clustered_workload(DOMAIN, 30, 5, seed=7).initialize(t2)
        for oid in range(30):
            a, b = t1.motion_of(oid), t2.motion_of(oid)
            assert (a.x, a.y, a.vx, a.vy) == (b.x, b.y, b.vx, b.vy)


def test_scalar_clip_is_np_clip():
    """The walkers' scalar clamp returns np.clip's float, repr for repr:
    a value equal to a bound (a signed zero included) comes back as it is,
    and NaN stays NaN."""
    top = float(np.nextafter(100.0, -np.inf))
    values = [-0.0, 0.0, 1.0, -1.0, 50.0, 100.0, top, 1e-300, -1e-300,
              float("inf"), float("-inf"), float("nan")]
    bounds = [-0.0, 0.0, -1.0, 1e-300, 100.0, top]
    for value in values:
        for low in bounds:
            for high in bounds:
                want = float(np.clip(value, low, high))
                assert repr(_clip(value, low, high)) == repr(want), (value, low, high)


class TestEndToEndWithServer:
    def test_fr_equals_bruteforce_on_random_walks(self, small_config):
        from repro.core.system import PDRServer

        server = PDRServer(small_config, expected_objects=150)
        w = clustered_workload(
            small_config.domain, 150, small_config.max_update_interval,
            n_clusters=3, seed=11, max_speed=0.5,
        )
        w.initialize(server.table)
        w.run_until(server.table, 8)
        qt = server.tnow + 3
        exact = server.query("fr", qt=qt, varrho=3.0)
        oracle = server.query("bruteforce", qt=qt, varrho=3.0)
        assert exact.regions.symmetric_difference_area(
            oracle.regions
        ) == pytest.approx(0.0, abs=1e-6)
