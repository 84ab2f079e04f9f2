"""Stateful (model-based) property tests.

Hypothesis drives random interleavings of inserts, deletes, clock advances
and queries against the TPR-tree, the B^x-tree and the full server,
checking each against a trivially-correct in-memory model after every step.
This is the failure-injection layer of the suite: it explores orderings a
hand-written test would never reach (delete-triggered condensation followed
by splits, queries between re-reports, ring-buffer rollover mid-stream...).
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.geometry import Rect
from repro.index.bx import BxTree
from repro.index.tree import TPRTree
from repro.motion.model import Motion
from repro.motion.table import ObjectTable
from tests.conftest import small_pages

DOMAIN = Rect(0.0, 0.0, 100.0, 100.0)

coord = st.floats(0, 100, allow_nan=False)
velocity = st.floats(-2, 2, allow_nan=False)
oid_strategy = st.integers(0, 25)


class TPRTreeMachine(RuleBasedStateMachine):
    """The TPR-tree against a dict-of-motions model."""

    @initialize()
    def setup(self) -> None:
        self.tnow = 0
        self.table = ObjectTable()
        with small_pages(5):
            self.tree = TPRTree(self.table, horizon=15)
        self.table.add_listener(self.tree)
        self.model = {}

    @rule(oid=oid_strategy, x=coord, y=coord, vx=velocity, vy=velocity)
    def report(self, oid, x, y, vx, vy):
        """Insert (or replace) a motion, as the update protocol would."""
        self.table.report(oid, x, y, vx, vy)
        self.model[oid] = Motion(oid, self.tnow, x, y, vx, vy)

    @rule(
        wave=st.lists(
            st.tuples(oid_strategy, coord, coord, velocity, velocity), min_size=2, max_size=12
        )
    )
    def report_wave(self, wave):
        """Several reports at once (repeated oids split the wave): first
        reports, in-place re-reports and reused rows share one dispatch."""
        self.table.report_batch(wave)
        for oid, x, y, vx, vy in wave:
            self.model[oid] = Motion(oid, self.tnow, x, y, vx, vy)

    @precondition(lambda self: self.model)
    @rule(pick=st.randoms(use_true_random=False))
    def retire(self, pick):
        oid = pick.choice(sorted(self.model))
        self.table.retire(oid)
        del self.model[oid]

    @rule(dt=st.integers(1, 4))
    def advance(self, dt):
        self.tnow += dt
        self.table.advance_to(self.tnow)

    @rule(
        x1=st.floats(0, 70),
        y1=st.floats(0, 70),
        w=st.floats(5, 40),
        h=st.floats(5, 40),
        dt=st.integers(0, 10),
    )
    def query_matches_model(self, x1, y1, w, h, dt):
        rect = Rect(x1, y1, x1 + w, y1 + h)
        qt = self.tnow + dt
        got = sorted(self.tree.range_query(rect, qt, charge_io=False))
        want = []
        for motion in self.model.values():
            px, py = motion.position_at(qt)
            if rect.x1 <= px <= rect.x2 and rect.y1 <= py <= rect.y2:
                want.append(motion.oid)
        assert got == sorted(want)

    @invariant()
    def structure_valid(self):
        self.tree.validate()
        assert len(self.tree) == len(self.model)


class BxTreeMachine(RuleBasedStateMachine):
    """The B^x-tree against the same dict-of-motions model."""

    @initialize()
    def setup(self) -> None:
        self.tnow = 0
        self.table = ObjectTable()
        with small_pages(6):
            self.tree = BxTree(self.table, DOMAIN, horizon=15, phase_length=4, bits=5)
        self.table.add_listener(self.tree)
        self.model = {}

    @rule(oid=oid_strategy, x=coord, y=coord, vx=velocity, vy=velocity)
    def report(self, oid, x, y, vx, vy):
        self.table.report(oid, x, y, vx, vy)
        self.model[oid] = Motion(oid, self.tnow, x, y, vx, vy)

    @precondition(lambda self: self.model)
    @rule(pick=st.randoms(use_true_random=False))
    def retire(self, pick):
        oid = pick.choice(sorted(self.model))
        self.table.retire(oid)
        del self.model[oid]

    @rule(dt=st.integers(1, 4))
    def advance(self, dt):
        self.tnow += dt
        self.table.advance_to(self.tnow)

    @rule(
        x1=st.floats(0, 70),
        y1=st.floats(0, 70),
        w=st.floats(5, 40),
        h=st.floats(5, 40),
        dt=st.integers(0, 8),
    )
    def query_matches_model(self, x1, y1, w, h, dt):
        rect = Rect(x1, y1, x1 + w, y1 + h)
        qt = self.tnow + dt
        got = sorted(self.tree.range_query(rect, qt, charge_io=False))
        want = []
        for motion in self.model.values():
            px, py = motion.position_at(qt)
            if rect.x1 <= px <= rect.x2 and rect.y1 <= py <= rect.y2:
                want.append(motion.oid)
        assert got == sorted(want)

    @invariant()
    def structure_valid(self):
        self.tree.validate()


class ServerConsistencyMachine(RuleBasedStateMachine):
    """The full server: histogram counts must track the object table.

    After any interleaving of reports, retires and clock advances, the
    density histogram's total at any maintained timestamp must equal the
    number of live, in-domain objects whose last report covers it.
    """

    @initialize()
    def setup(self) -> None:
        from tests.conftest import small_system_config
        from repro.core.system import PDRServer

        self.server = PDRServer(small_system_config(), expected_objects=64)
        self.gen = np.random.default_rng(0)

    @rule(oid=st.integers(0, 15), x=st.floats(1, 99), y=st.floats(1, 99),
          vx=velocity, vy=velocity)
    def report(self, oid, x, y, vx, vy):
        self.server.report(oid, x, y, vx, vy)

    @precondition(lambda self: len(self.server.table) > 0)
    @rule(pick=st.randoms(use_true_random=False))
    def retire(self, pick):
        oids = [m.oid for m in self.server.table.motions()]
        self.server.table.retire(pick.choice(sorted(oids)))

    @rule(dt=st.integers(1, 3))
    def advance(self, dt):
        self.server.advance_to(self.server.tnow + dt)

    @invariant()
    def histogram_tracks_table(self):
        server = self.server
        horizon = server.config.horizon
        domain = server.config.domain
        for qt in (server.tnow, server.tnow + horizon // 2):
            expected = 0
            for motion in server.table.motions():
                if not (motion.t_ref <= qt <= motion.t_ref + horizon):
                    continue
                x, y = motion.position_at(qt)
                if domain.contains_point(x, y):
                    expected += 1
            assert server.histogram.total_at(qt) == expected


TestTPRTreeStateful = TPRTreeMachine.TestCase
TestTPRTreeStateful.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)
TestBxTreeStateful = BxTreeMachine.TestCase
TestBxTreeStateful.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)
TestServerConsistencyStateful = ServerConsistencyMachine.TestCase
TestServerConsistencyStateful.settings = settings(
    max_examples=8, stateful_step_count=20, deadline=None
)
