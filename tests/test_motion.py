"""Tests for the moving-object substrate: motions, updates, the table."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import InvalidParameterError, QueryError
from repro.motion.model import Motion
from repro.motion.table import ObjectTable
from repro.motion.updates import Columns, UpdateListener


def motions_of(columns: Columns):
    return [Motion(*fields) for fields in columns.tuples()]


class Recorder(UpdateListener):
    """Collects every event for assertions: a wave unrolls into the
    delete_i, insert_i, ... sequence its ``supersedes`` index prescribes."""

    def __init__(self):
        self.events = []
        self.waves = []

    def on_report_batch(self, wave):
        self.waves.append(wave)
        deleted, inserted = motions_of(wave.deleted), motions_of(wave.inserted)
        superseded = set(wave.supersedes.tolist())
        for j, motion in enumerate(deleted):
            if j not in superseded:  # a retire
                self.events.append(("delete", wave.tnow, motion))
        for motion, j in zip(inserted, wave.supersedes.tolist()):
            if j >= 0:
                self.events.append(("delete", wave.tnow, deleted[j]))
            self.events.append(("insert", wave.tnow, motion))

    def on_advance(self, tnow, motions):
        self.events.append(("advance", tnow, None))


class TestMotion:
    def test_position_at_reference(self):
        m = Motion(1, 5, 10.0, 20.0, 2.0, -1.0)
        assert m.position_at(5) == (10.0, 20.0)

    def test_linear_extrapolation(self):
        m = Motion(1, 5, 10.0, 20.0, 2.0, -1.0)
        assert m.position_at(8) == (16.0, 17.0)
        # Backwards extrapolation is well-defined under the linear model.
        assert m.position_at(3) == (6.0, 22.0)

    def test_positions_at_vectorised(self):
        m = Motion(0, 0, 0.0, 0.0, 1.0, 2.0)
        xs, ys = m.positions_at(np.array([0, 1, 2]))
        assert xs.tolist() == [0.0, 1.0, 2.0]
        assert ys.tolist() == [0.0, 2.0, 4.0]

    def test_speed(self):
        assert Motion(0, 0, 0, 0, 3.0, 4.0).speed == pytest.approx(5.0)

    def test_with_reference(self):
        m = Motion(7, 0, 0.0, 0.0, 1.0, 1.0).with_reference(10)
        assert m.t_ref == 10
        assert (m.x, m.y) == (10.0, 10.0)
        assert m.position_at(12) == (12.0, 12.0)

    def test_negative_oid_rejected(self):
        with pytest.raises(InvalidParameterError):
            Motion(-1, 0, 0, 0, 0, 0)

    @given(
        st.integers(0, 100),
        st.floats(-100, 100),
        st.floats(-100, 100),
        st.floats(-5, 5),
        st.floats(-5, 5),
        st.integers(0, 50),
        st.integers(0, 50),
    )
    def test_rebasing_preserves_trajectory(self, t0, x, y, vx, vy, t1, t2):
        m = Motion(0, t0, x, y, vx, vy)
        rebased = m.with_reference(t0 + t1)
        p1 = m.position_at(t0 + t1 + t2)
        p2 = rebased.position_at(t0 + t1 + t2)
        assert p1[0] == pytest.approx(p2[0], abs=1e-6)
        assert p1[1] == pytest.approx(p2[1], abs=1e-6)


class TestObjectTable:
    def test_first_report_is_insert_only(self):
        table = ObjectTable()
        rec = Recorder()
        table.add_listener(rec)
        table.report(1, 0.0, 0.0, 1.0, 1.0)
        assert [e[0] for e in rec.events] == ["insert"]

    def test_second_report_is_delete_then_insert(self):
        table = ObjectTable()
        rec = Recorder()
        table.add_listener(rec)
        table.report(1, 0.0, 0.0, 1.0, 1.0)
        table.advance_to(3)
        table.report(1, 5.0, 5.0, 0.0, 0.0)
        kinds = [e[0] for e in rec.events]
        assert kinds == ["insert", "advance", "delete", "insert"]
        delete_event = rec.events[2]
        assert delete_event[1] == 3  # retraction effective now
        assert delete_event[2].t_ref == 0  # ... of the motion registered at 0

    def test_motion_lookup(self):
        table = ObjectTable()
        table.report(4, 1.0, 2.0, 0.5, 0.5)
        m = table.motion_of(4)
        assert m is not None and (m.x, m.y) == (1.0, 2.0)
        assert table.motion_of(99) is None
        assert 4 in table
        assert len(table) == 1

    def test_retire(self):
        table = ObjectTable()
        rec = Recorder()
        table.add_listener(rec)
        table.report(1, 0.0, 0.0, 0.0, 0.0)
        table.retire(1)
        assert 1 not in table
        assert [e[0] for e in rec.events] == ["insert", "delete"]

    def test_retire_unknown_raises(self):
        with pytest.raises(QueryError):
            ObjectTable().retire(12)

    def test_clock_cannot_go_backwards(self):
        table = ObjectTable(tnow=5)
        with pytest.raises(InvalidParameterError):
            table.advance_to(4)

    def test_advance_to_same_time_is_noop(self):
        table = ObjectTable(tnow=5)
        rec = Recorder()
        table.add_listener(rec)
        table.advance_to(5)
        assert rec.events == []

    def test_positions_at(self):
        table = ObjectTable()
        table.report(0, 0.0, 0.0, 1.0, 0.0)
        table.report(1, 10.0, 10.0, 0.0, -1.0)
        positions = dict((oid, (x, y)) for oid, x, y in table.positions_at(2.0))
        assert positions[0] == (2.0, 0.0)
        assert positions[1] == (10.0, 8.0)

    def test_remove_listener(self):
        table = ObjectTable()
        rec = Recorder()
        table.add_listener(rec)
        table.remove_listener(rec)
        table.report(0, 0.0, 0.0, 0.0, 0.0)
        assert rec.events == []

    def test_report_uses_current_clock_as_reference(self):
        table = ObjectTable()
        table.advance_to(7)
        m = table.report(0, 1.0, 1.0, 0.0, 0.0)
        assert m.t_ref == 7


    def test_report_retire_and_report_batch_build_the_same_kind_of_wave(self):
        table = ObjectTable(tnow=2)
        rec = Recorder()
        table.add_listener(rec)
        table.report(1, 1.0, 2.0, 0.5, 0.0)
        table.report_batch([(1, 3.0, 4.0, 0.0, 0.5), (2, 5.0, 6.0, 0.0, 0.0)])
        table.retire(2)
        first, mixed, retire = rec.waves
        assert first.supersedes.tolist() == [-1] and len(first.deleted) == 0
        assert mixed.supersedes.tolist() == [0, -1]
        assert motions_of(mixed.deleted) == [Motion(1, 2, 1.0, 2.0, 0.5, 0.0)]
        # the re-report overwrote its row in place; the wave kept the old value
        assert mixed.deleted_rows.tolist() == [mixed.rows[0]] == first.rows.tolist()
        assert motions_of(table.columns(mixed.rows)) == motions_of(mixed.inserted)
        assert len(retire.inserted) == 0 and retire.deleted.oid.tolist() == [2]
        assert retire.deleted_rows.tolist() == [mixed.rows[1]]
        assert mixed.inserted.oid.dtype == mixed.inserted.t_ref.dtype == np.int64

    def test_duplicate_oid_splits_the_batch_into_consecutive_waves(self):
        table = ObjectTable()
        rec = Recorder()
        table.add_listener(rec)
        table.report_batch(
            [(1, 0.0, 0.0, 0.0, 0.0), (2, 1.0, 1.0, 0.0, 0.0), (1, 2.0, 2.0, 0.0, 0.0)]
        )
        assert [w.inserted.oid.tolist() for w in rec.waves] == [[1, 2], [1]]
        assert rec.waves[1].deleted.x.tolist() == [0.0]
        assert [e[0] for e in rec.events] == ["insert", "insert", "delete", "insert"]
        assert table.motion_of(1).x == 2.0 and len(table) == 2

    def test_retired_row_is_reused_and_columns_grow_past_the_initial_capacity(self):
        table = ObjectTable()
        table.report(1, 1.0, 1.0, 0.0, 0.0)
        table.report(2, 2.0, 2.0, 0.0, 0.0)
        table.retire(1)
        rec = Recorder()
        table.add_listener(rec)
        table.report(3, 3.0, 3.0, 0.0, 0.0)
        assert rec.waves[0].rows.tolist() == [0]  # the row object 1 freed
        many = [(10 + i, float(i % 90), 1.0, 0.0, 0.0) for i in range(3000)]
        table.report_batch(many)
        assert len(table) == 3002
        assert sorted(m.oid for m in table.motions()) == [2, 3] + [10 + i for i in range(3000)]
        assert table.motion_of(2) == Motion(2, 0, 2.0, 2.0, 0.0, 0.0)
        assert table.motion_of(3009) == Motion(3009, 0, 29.0, 1.0, 0.0, 0.0)
        assert table.rows().tolist()[:2] == [1, 0]  # first-report order, not row order

    def test_oids_beyond_float_precision_stay_exact(self):
        table = ObjectTable()
        table.report(2**53 + 1, 1.0, 1.0, 0.0, 0.0)
        table.report(2**53, 2.0, 2.0, 0.0, 0.0)
        assert len(table) == 2
        assert table.motion_of(2**53 + 1).x == 1.0
        assert sorted(oid for oid, _, _ in table.positions_at(0)) == [2**53, 2**53 + 1]


class TestUpdateListenerDefaults:
    def test_bare_listener_ignores_waves_and_advances(self):
        table = ObjectTable()
        table.add_listener(UpdateListener())
        table.report(0, 0.0, 0.0, 0.0, 0.0)
        table.report(0, 1.0, 1.0, 0.0, 0.0)
        table.retire(0)
        table.advance_to(5)
        assert len(table) == 0 and table.tnow == 5
        assert [name for name in vars(UpdateListener) if name.startswith("on_")] == [
            "on_report_batch", "on_advance",
        ]
