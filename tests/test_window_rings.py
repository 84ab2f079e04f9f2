"""DH and PA store the query window ``[t_now, t_now + W]`` only.

Reports project over the window's ``W + 1`` slots; an advance materialises
the slots entering the window from the table's live motions; a query past
the window, up to ``t_now + H``, is answered from a transient slot built the
same way.  The state must be what the paper's eager ``H + 1`` ring holds at
the same timestamps — DH counts exactly, PA coefficients to rounding (entry
adds them in table order, not in report order) — and a deterministic
function of the log: live, recovered and replica state byte-identical.
"""

from __future__ import annotations

import gc
import os
import weakref

import numpy as np
import pytest

from bench.worlds import T0, road_inputs, uniform_inputs
from repro import PDRServer
from repro.core.errors import HorizonError
from repro.methods.pa import PAMethod
from repro.reliability.replication import ReplicationGroup
from repro.reliability.validation import ReliabilityConfig
from tests.conftest import small_system_config
from tests.test_bounded_passes import _state_bytes


def _eager_reference(server: PDRServer) -> PAMethod:
    """A PA listener on ``server``'s table that keeps every timestamp of the
    horizon, eagerly, as the paper does: its ring is ``H + 1`` slots and
    an advance only retires slots (none enters with a motion)."""
    cfg = server.config
    reference = PAMethod(
        cfg.domain, l=cfg.l, horizon=cfg.horizon, g=cfg.polynomial_grid,
        k=cfg.polynomial_degree, md=cfg.evaluation_grid, tnow=server.tnow,
    )
    server.table.add_listener(reference)
    return reference


def _recount(server: PDRServer, qt: int) -> np.ndarray:
    """Per-cell count of the live motions covering ``qt``, one motion at a
    time through ``cell_of``."""
    hist, horizon = server.histogram, server.config.horizon
    counts = np.zeros((hist.m, hist.m), dtype=np.int64)
    for motion in server.table.motions():
        if motion.t_ref <= qt <= motion.t_ref + horizon:
            x, y = motion.position_at(qt)
            if server.config.domain.contains_point(x, y):
                counts[hist.cell_of(x, y)] += 1
    return counts


def _assert_window_matches(server: PDRServer, reference: PAMethod) -> None:
    window = server.config.prediction_window
    scale = np.abs(reference._coeffs).max()
    for qt in range(server.tnow, server.tnow + window + 1):
        assert np.array_equal(server.histogram.counts_at(qt), _recount(server, qt)), qt
        got = server.pa.surface_at(qt).coeffs
        want = reference.surface_at(qt).coeffs
        assert np.abs(got - want).max() <= 1e-12 * scale, qt


@pytest.fixture(scope="module", params=["road", "uniform"])
def driven(request):
    """A bench world after a bulk load, 20 ticks, a retire wave, a 3-tick
    jump and a jump of W + 5 ticks, each jump followed by its tick's wave;
    the eager reference rode along."""
    inputs = road_inputs(2000, 101) if request.param == "road" else uniform_inputs(1000, 101)
    server = PDRServer(inputs.config, expected_objects=inputs.n_objects, tnow=T0)
    reference = _eager_reference(server)
    server.report_batch(inputs.state)
    for tick in range(T0 + 1, T0 + 21):
        server.advance_to(tick)
        server.report_batch(inputs.wave(tick))
    for oid, *_ in inputs.state[::7]:
        server.retire(oid)
    for jump in (3, server.config.prediction_window + 5):
        tick = server.tnow + jump
        server.advance_to(tick)
        server.report_batch([r for r in inputs.wave(tick) if r[0] in server.table])
    return server, reference


class TestWindowSlots:
    def test_rings_hold_the_window_only(self, driven):
        server, reference = driven
        slots = server.config.prediction_window + 1
        assert server.histogram.state_arrays()["counts"].shape[0] == slots
        assert server.pa.state_arrays()["coeffs"].shape[2] == slots
        assert reference._coeffs.shape[2] == server.config.horizon + 1

    def test_slots_equal_a_recount_and_the_eager_ring(self, driven):
        server, reference = driven
        _assert_window_matches(server, reference)
        assert server.audit() == []

    def test_every_phase_keeps_the_window_exact(self):
        """The same checks after each phase of a small world, where the
        ring wraps many times and jumps cross the window and the horizon."""
        server = PDRServer(small_system_config(), expected_objects=40)
        reference = _eager_reference(server)
        gen = np.random.default_rng(4)

        def wave(n):
            oids = gen.choice(40, size=n, replace=False).tolist()
            xy = gen.uniform(-5.0, 105.0, (n, 2))
            v = gen.uniform(-4.0, 4.0, (n, 2))
            return [(o, *p, *u) for o, p, u in zip(oids, xy.tolist(), v.tolist())]

        server.report_batch(wave(40))
        _assert_window_matches(server, reference)
        for tick in list(range(1, 20)) + [23, 31, 39, 60]:  # jumps of 4, 8 > W + 1, 21 > H
            server.advance_to(tick)
            server.report_batch(wave(7))
            if tick % 5 == 0:
                server.retire(server.table.columns().oid[0])
            _assert_window_matches(server, reference)


class TestPastTheWindow:
    def test_transient_slots_answer_up_to_the_horizon(self, driven):
        """At ``t_now + W + 1`` and ``t_now + H`` the transient histogram is
        the recount, the transient surface the eager ring's, and FR brute
        force's — over the motions covering qt: after the jumps many live
        motions are past their own horizon there, and no structure (nor
        FR's fetch, nor the oracle) counts them."""
        server, reference = driven
        cfg = server.config
        scale = np.abs(reference._coeffs).max()
        dense = 0
        for qt in (server.tnow + cfg.prediction_window + 1, server.tnow + cfg.horizon):
            motions = server.table.columns()
            assert not motions.covering([qt], cfg.horizon).all()
            assert np.array_equal(server.histogram.counts_at(qt), _recount(server, qt))
            got = server.pa.surface_at(qt).coeffs
            assert np.abs(got - reference.surface_at(qt).coeffs).max() <= 1e-12 * scale
            for varrho in (1.0, 3.0):
                fr = server.query("fr", qt=qt, varrho=varrho)
                brute = server.query("bruteforce", qt=qt, varrho=varrho)
                assert fr.regions.symmetric_difference_area(brute.regions) == 0.0
                dense += not brute.regions.is_empty()
        assert dense >= 2
        beyond = server.tnow + cfg.horizon + 1
        for method in ("fr", "pa"):
            with pytest.raises(HorizonError):
                server.query(method, qt=beyond, varrho=2.0)

    def test_a_motion_leaves_every_slot_after_its_horizon(self):
        """Reported at t = 0 with H = 12: by t = 8 the window is [8, 14],
        and slots 13 and 14 — entered after the report — never count it,
        nor do the transient slots past them."""
        server = PDRServer(small_system_config(), expected_objects=4)
        server.report(0, 50.0, 50.0, 0.5, 0.0)
        horizon = server.config.horizon
        for tick in (3, 8, 10):
            server.advance_to(tick)
            for qt in range(tick, tick + horizon + 1):
                present = qt <= horizon
                assert server.histogram.total_at(qt) == int(present), (tick, qt)
                assert np.any(server.pa.surface_at(qt).coeffs != 0.0) == present


def test_live_recovered_and_replica_state_are_byte_identical(tmp_path):
    """A checkpoint mid-run, then a WAL tail of waves, a retire and advances
    (one a jump): entry is a function of the log, so the recovered server and
    a replica bootstrapped from the image and the tail hold the live bytes."""
    inputs = road_inputs(400, 101)
    rc = ReliabilityConfig(
        state_dir=os.path.join(str(tmp_path), "state"), checkpoint_interval=0, fsync=False
    )
    primary = PDRServer(inputs.config, expected_objects=inputs.n_objects, tnow=T0, reliability=rc)
    group = ReplicationGroup(primary, n_replicas=1, staleness_bound=0)
    replica = group.replicas[0]
    replica.link.partitioned = True  # it learns everything from the image and the log
    primary.report_batch(inputs.state)
    for tick in range(T0 + 1, T0 + 11):
        primary.advance_to(tick)
        primary.report_batch(inputs.wave(tick))
    primary.checkpoint()
    for tick in list(range(T0 + 11, T0 + 16)) + [T0 + 19]:
        primary.advance_to(tick)
        primary.report_batch([r for r in inputs.wave(tick) if r[0] in primary.table])
    primary.retire(inputs.state[0][0])
    live = _state_bytes(primary)
    replica.catch_up(group.state_dir, prefer_image=True)
    assert replica.server.tnow == primary.tnow
    assert _state_bytes(replica.server) == live
    group.close()
    recovered = PDRServer.recover(rc.state_dir)
    try:
        assert _state_bytes(recovered) == live
    finally:
        recovered.close()


def test_a_dropped_server_frees_its_rings_without_the_collector():
    """DH and PA reach the table for transient slots through a weak proxy,
    as the TPR-tree does: the table owns its listeners, so a strong
    back-pointer would leave every ring to the cyclic collector (a bench
    process that recovers a server twenty times held twenty of them)."""
    server = PDRServer(small_system_config(), expected_objects=4)
    server.report(0, 50.0, 50.0, 0.5, 0.0)
    server.advance_to(3)
    rings = [weakref.ref(server.histogram), weakref.ref(server.pa)]
    gc.disable()
    try:
        del server
        assert [ring() for ring in rings] == [None, None]
    finally:
        gc.enable()
