"""Tests for the PA method: on-line maintenance and query evaluation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chebyshev.cheb2d import total_degree_mask
from repro.core.errors import HorizonError, InvalidParameterError
from repro.core.geometry import Rect
from repro.core.query import SnapshotPDRQuery
from repro.methods.pa import PAMethod
from repro.motion.table import ObjectTable

DOMAIN = Rect(0.0, 0.0, 100.0, 100.0)


def make_pa(l=10.0, horizon=5, g=4, k=4, tnow=0):
    return PAMethod(DOMAIN, l=l, horizon=horizon, g=g, k=k, md=128, tnow=tnow)


def rebuilt_surface(pa_template: PAMethod, table: ObjectTable, qt: int):
    """Reference surface: rebuild from scratch from the live objects."""
    from repro.chebyshev.grid import ChebSurface

    spec = pa_template.spec
    surface = ChebSurface(spec, spec.zero_coefficients())
    for motion in table.motions():
        # Only motions whose insert covered qt contribute, and only while
        # the object is inside the domain (the shared density convention).
        if motion.t_ref <= qt <= motion.t_ref + pa_template.horizon:
            x, y = motion.position_at(qt)
            if DOMAIN.contains_point(x, y):
                surface.add_object(x, y, pa_template.l)
    return surface


class TestMaintenance:
    def test_insert_increases_density_near_object(self):
        pa = make_pa()
        table = ObjectTable()
        table.add_listener(pa)
        table.report(0, 50.0, 50.0, 0.0, 0.0)
        surface = pa.surface_at(0)
        assert surface.density_at(50.0, 50.0) > 0.0

    def test_delete_cancels_insert_exactly(self):
        pa = make_pa()
        table = ObjectTable()
        table.add_listener(pa)
        before = pa._coeffs.copy()
        table.report(0, 37.0, 21.0, 1.0, -0.5)
        table.retire(0)
        assert np.allclose(pa._coeffs, before, atol=1e-12)

    @given(st.integers(1, 12), st.integers(0, 10_000), st.integers(0, 5))
    @settings(max_examples=20, deadline=None)
    def test_incremental_equals_rebuild(self, n, seed, qt):
        """Incremental coefficient maintenance == rebuild from live objects."""
        gen = np.random.default_rng(seed)
        pa = make_pa()
        table = ObjectTable()
        table.add_listener(pa)
        for oid in range(n):
            table.report(
                oid,
                float(gen.uniform(5, 95)),
                float(gen.uniform(5, 95)),
                float(gen.uniform(-2, 2)),
                float(gen.uniform(-2, 2)),
            )
            if gen.random() < 0.3:
                table.report(
                    oid,
                    float(gen.uniform(5, 95)),
                    float(gen.uniform(5, 95)),
                    0.0,
                    0.0,
                )
        reference = rebuilt_surface(pa, table, qt)
        live = pa.surface_at(qt)
        assert np.allclose(live.coeffs, reference.coeffs, atol=1e-9)

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_wave_equals_sequential_on_wide_squares_and_big_waves(self, k):
        """Wave == sequential, bitwise, where the default-config pins do not
        reach: ``l > 2 * cell_width`` (every square spans >= 3 tile columns
        and rows), low degrees, objects that leave the domain mid-window,
        and a wave several flush chunks long."""
        gen = np.random.default_rng(k)
        horizon = 12

        def world():
            pa = PAMethod(DOMAIN, l=45.0, horizon=horizon, g=5, k=k, md=64)
            table = ObjectTable()
            table.add_listener(pa)
            return pa, table

        def wave(n):
            reports = [
                (oid, float(gen.uniform(1, 99)), float(gen.uniform(1, 99)),
                 float(gen.uniform(-2, 2)), float(gen.uniform(-2, 2)))
                for oid in range(n)
            ]
            # near an edge and heading out: inside now, gone within the window
            reports += [(n, 98.0, 50.0, 1.5, 0.0), (n + 1, 40.0, 1.0, 0.0, -0.5)]
            return reports

        waves = [wave(90), wave(90)]  # the second wave retracts the first
        (seq_pa, seq_table), (wave_pa, wave_table) = world(), world()
        for tick, reports in enumerate(waves):
            seq_table.advance_to(tick)
            wave_table.advance_to(tick)
            for report in reports:
                seq_table.report(*report)
            wave_table.report_batch(reports)
        # delete + insert jobs x the ring's timestamps (W = H: no update interval)
        squares = 2 * 92 * (seq_pa.prediction_window + 1)
        assert 9 * squares > 4 * PAMethod._BATCH_RECTS  # several flushes
        assert np.array_equal(wave_pa._coeffs, seq_pa._coeffs)
        assert np.any(wave_pa._coeffs != 0.0)
        for qt in (1, 7, horizon):
            reference = rebuilt_surface(wave_pa, wave_table, qt)
            assert np.allclose(wave_pa.surface_at(qt).coeffs, reference.coeffs, atol=1e-9)

    def test_advance_then_rereport_keeps_window_exact(self):
        pa = make_pa(horizon=5)
        table = ObjectTable()
        table.add_listener(pa)
        table.report(0, 50.0, 50.0, 1.0, 0.0)
        table.advance_to(3)
        table.report(0, 53.0, 50.0, 1.0, 0.0)
        for qt in range(3, 9):
            reference = rebuilt_surface(pa, table, qt)
            assert np.allclose(pa.surface_at(qt).coeffs, reference.coeffs, atol=1e-9)

    def test_window_errors(self):
        pa = make_pa(horizon=5, tnow=2)
        with pytest.raises(HorizonError):
            pa.surface_at(1)
        with pytest.raises(HorizonError):
            pa.surface_at(8)

    def test_advance_past_window_resets(self):
        pa = make_pa(horizon=5)
        table = ObjectTable()
        table.add_listener(pa)
        table.report(0, 50.0, 50.0, 0.0, 0.0)
        table.advance_to(30)
        assert np.allclose(pa.surface_at(32).coeffs, 0.0)

    def test_object_outside_domain_contributes_nothing(self):
        pa = make_pa()
        table = ObjectTable()
        table.add_listener(pa)
        table.report(0, 95.0, 50.0, 20.0, 0.0)  # far outside from t=1 on
        assert np.allclose(pa.surface_at(3).coeffs, 0.0, atol=1e-12)

    def test_memory_accounting(self):
        pa = make_pa(g=4, k=4, horizon=5)
        assert pa.memory_bytes() == 6 * 16 * 15 * 8  # (k+1)(k+2)/2 = 15

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            PAMethod(DOMAIN, l=0.0, horizon=5)
        with pytest.raises(InvalidParameterError):
            PAMethod(DOMAIN, l=5.0, horizon=-1)
        pa = make_pa()
        with pytest.raises(InvalidParameterError):
            pa.on_advance(-1, ObjectTable().columns())


class TestQuery:
    def test_l_mismatch_rejected(self):
        pa = make_pa(l=10.0)
        with pytest.raises(InvalidParameterError):
            pa.query(SnapshotPDRQuery(rho=0.1, l=20.0, qt=0))

    def test_finds_cluster(self):
        pa = make_pa(g=5, k=5)
        table = ObjectTable()
        table.add_listener(pa)
        gen = np.random.default_rng(1)
        for oid in range(30):
            x, y = gen.normal([50.0, 50.0], 2.5, size=2)
            table.report(oid, float(x), float(y), 0.0, 0.0)
        # Cluster density ~ 30 objects / 100 area; threshold 0.05.
        result = pa.query(SnapshotPDRQuery(rho=0.05, l=10.0, qt=0))
        assert result.regions.contains_point(50.0, 50.0)
        assert not result.regions.contains_point(10.0, 90.0)
        assert result.stats.method == "pa"
        assert result.stats.bnb_nodes > 0

    def test_empty_world_empty_answer(self):
        pa = make_pa()
        result = pa.query(SnapshotPDRQuery(rho=0.01, l=10.0, qt=0))
        assert result.regions.is_empty()

    def test_query_tracks_moving_cluster(self):
        pa = make_pa(g=5, k=5, horizon=5)
        table = ObjectTable()
        table.add_listener(pa)
        gen = np.random.default_rng(2)
        for oid in range(30):
            x, y = gen.normal([30.0, 50.0], 2.0, size=2)
            table.report(oid, float(x), float(y), 8.0, 0.0)  # moving right
        q0 = pa.query(SnapshotPDRQuery(rho=0.05, l=10.0, qt=0))
        q5 = pa.query(SnapshotPDRQuery(rho=0.05, l=10.0, qt=5))
        assert q0.regions.contains_point(30.0, 50.0)
        assert not q0.regions.contains_point(70.0, 50.0)
        assert q5.regions.contains_point(70.0, 50.0)
        assert not q5.regions.contains_point(30.0, 50.0)

    def test_stats_extra_fields(self):
        pa = make_pa()
        result = pa.query(SnapshotPDRQuery(rho=0.01, l=10.0, qt=0))
        assert "bnb_pruned" in result.stats.extra

    def test_node_accounting_and_span_attributes(self):
        """nodes = tiles bounded + leaf cells evaluated, falling with rho;
        the ``bnb`` span carries the same counts for ``repro trace``."""
        from repro.telemetry import TELEMETRY, render_span_tree

        pa = make_pa(g=5, k=5)  # md=128 -> 32 leaves per tile and axis
        table = ObjectTable()
        table.add_listener(pa)
        gen = np.random.default_rng(3)
        for oid in range(60):
            x, y = gen.normal([50.0, 50.0], 9.0, size=2)
            table.report(oid, float(x), float(y), 0.0, 0.0)
        nodes = []
        for rho in (0.02, 0.1):
            with TELEMETRY.tracer.trace("query") as root:
                result = pa.query(SnapshotPDRQuery(rho=rho, l=10.0, qt=0))
            stats, span = result.stats, root.stages["bnb"]
            leaves = stats.extra["bnb_leaves"]
            assert stats.bnb_nodes == 25 + leaves
            assert span["tiles_bounded"] == 25
            assert span["tiles_evaluated"] == (
                25 - stats.extra["bnb_accepted"] - stats.extra["bnb_pruned"]
            )
            assert span["cells_evaluated"] == leaves == span["tiles_evaluated"] * 32 * 32
            assert span["runs_emitted"] == len(result.regions) > 0
            assert any("tiles_evaluated=" in line for line in render_span_tree(root.to_dict()))
            nodes.append(stats.bnb_nodes)
        assert nodes[1] < nodes[0]


class TestPersistedRing:
    """The ring is time-minor in memory, ``(g, g, slots, k+1, k+1)``; what
    leaves the method — ``state_arrays`` and so snapshot format 4 — keeps
    that order and only the ``(k+1)(k+2)/2`` retained coefficients,
    ``(g, g, slots, (k+1)(k+2)/2)``."""

    @staticmethod
    def moving_world(horizon=5, g=4, k=4):
        pa = make_pa(horizon=horizon, g=g, k=k)
        table = ObjectTable()
        table.add_listener(pa)
        gen = np.random.default_rng(3)
        for tick in range(4):  # the ring has wrapped: slot != t - tnow
            table.advance_to(tick)
            table.report_batch([
                (oid, float(gen.uniform(5, 95)), float(gen.uniform(5, 95)),
                 float(gen.uniform(-3, 3)), float(gen.uniform(-3, 3)))
                for oid in range(12)
            ])
        return pa, table

    def test_state_arrays_are_retained_and_time_minor(self):
        pa, _ = self.moving_world()
        state = pa.state_arrays()
        coeffs = state["coeffs"]
        assert coeffs.shape == (4, 4, 6, 15) and coeffs.flags.c_contiguous
        assert coeffs.nbytes == pa.memory_bytes()
        keep = total_degree_mask(4)
        lo, hi = pa.window
        assert lo % 6 != 0
        for t in range(lo, hi + 1):
            assert state["slot_time"][t % 6] == t
            surface = pa.surface_at(t).coeffs
            assert np.array_equal(coeffs[:, :, t % 6], surface[:, :, keep])
            assert not np.any(surface[:, :, ~keep])
            assert np.any(coeffs[:, :, t % 6] != 0.0)

    def test_load_state_arrays_round_trip(self):
        pa, _ = self.moving_world()
        twin = make_pa(horizon=5, g=4, k=4)
        twin.load_state_arrays(pa.state_arrays())
        assert twin.window == pa.window
        assert twin._coeffs.flags.c_contiguous
        assert twin._coeffs.tobytes() == pa._coeffs.tobytes()
        for key, value in pa.state_arrays().items():
            assert np.array_equal(twin.state_arrays()[key], value)
        for wrong in (
            pa._coeffs,  # the full (k+1)^2 ring
            np.moveaxis(pa.state_arrays()["coeffs"], 2, 0),  # slot-major
            pa.state_arrays()["coeffs"][..., :-1],  # one coefficient short
        ):
            with pytest.raises(InvalidParameterError):
                twin.load_state_arrays({**pa.state_arrays(), "coeffs": wrong})

    def test_save_server_load_server_round_trip(self, tmp_path):
        from repro.core.system import PDRServer
        from repro.storage.snapshot import load_server, save_server
        from tests.conftest import populate_clustered, small_system_config

        server = PDRServer(small_system_config(), expected_objects=120)
        populate_clustered(server, 120, seed=5)
        server.advance_to(4)
        gen = np.random.default_rng(9)
        server.report_batch([
            (oid, float(gen.uniform(10, 90)), float(gen.uniform(10, 90)), 0.5, -0.5)
            for oid in range(0, 40)
        ])
        save_server(server, tmp_path / "snap.npz")
        restored = load_server(tmp_path / "snap.npz")
        for key, value in server.pa.state_arrays().items():
            assert np.array_equal(restored.pa.state_arrays()[key], value)
        for qt in range(server.tnow, server.tnow + server.config.horizon + 1, 3):
            for varrho in (1.0, 3.0):
                a = server.query("pa", qt=qt, varrho=varrho)
                b = restored.query("pa", qt=qt, varrho=varrho)
                assert np.array_equal(a.regions.bounds, b.regions.bounds)
