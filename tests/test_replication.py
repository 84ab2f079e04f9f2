"""Replication: WAL shipping, staleness routing, failover, fencing.

The partition/failover acceptance matrix of the replicated-serving work:
a deterministic workload is driven through a :class:`ReplicationGroup`
while the transport misbehaves in every supported way (lag, drop,
reorder, partition, injected send faults) and the primary is killed at
every named fault site of the write path.  After every scenario the
promoted/caught-up state must be *bit-exact* with an uncrashed reference
(PA coefficients and histogram counters compared array-for-array — the
same guarantee PR 1's crash recovery gives), no acknowledged write may
be lost, and the old primary must be fenced out.
"""

from __future__ import annotations

import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import small_system_config
from tests.test_recovery import (
    CRASH_SITES,
    N_OBJECTS,
    OPS,
    apply_op,
    assert_states_match,
    durable_config,
    reference,  # noqa: F401  (module-scoped fixture re-used here)
)
from repro import PDRServer
from repro.core.errors import (
    FailoverError,
    InvalidParameterError,
    NotPrimaryError,
    StalenessExceededError,
)
from repro.reliability import replication as replication_module
from repro.reliability import (
    FaultInjector,
    InjectedCrashError,
    ReplicationGroup,
    ShippedRecord,
)

GROUP_CRASH_SITES = CRASH_SITES + ("replication.send",)


def make_group(tmp_path, n_replicas=2, faults=None, staleness=0, interval=25):
    faults = faults or FaultInjector()
    rc = durable_config(tmp_path, faults=faults, interval=interval)
    primary = PDRServer(small_system_config(), expected_objects=N_OBJECTS, reliability=rc)
    group = ReplicationGroup(
        primary,
        n_replicas=n_replicas,
        staleness_bound=staleness,
    )
    return group, faults


def apply_group_op(group: ReplicationGroup, op) -> None:
    if op[0] == "advance":
        group.advance_to(op[1])
    elif op[0] == "retire":
        assert group.retire(op[1]) is True
    else:
        assert group.report(*op[1:]) is not None


def assert_replica_bit_exact(replica, server) -> None:
    assert np.array_equal(
        replica.server.pa.state_arrays()["coeffs"], server.pa.state_arrays()["coeffs"]
    )
    assert np.array_equal(
        replica.server.histogram.state_arrays()["counts"],
        server.histogram.state_arrays()["counts"],
    )
    assert replica.server.audit() == []


class TestShipping:
    def test_replicas_track_primary_bit_exactly(self, tmp_path):
        group, _ = make_group(tmp_path)
        for op in OPS[:300]:
            apply_group_op(group, op)
        for replica in group.replicas:
            assert replica.lag(group.acked_lsn) == 0
            assert_replica_bit_exact(replica, group.primary)
        group.close()

    def test_lag_knob_delays_delivery(self, tmp_path):
        group, _ = make_group(tmp_path, n_replicas=1, staleness=0)
        replica = group.replicas[0]
        replica.link.lag_records = 10
        for op in OPS[:100]:
            apply_group_op(group, op)
        assert replica.lag(group.acked_lsn) == 10
        # a lagging replica is outside the staleness bound: the primary serves
        result = group.query("pa", qt=group.tnow, varrho=2.0)
        assert result.served_by == "primary"
        # within a looser bound the replica serves (slightly stale is fine)
        group.staleness_bound = 50
        result = group.query("pa", qt=group.tnow, varrho=2.0)
        assert result.served_by == "replica-0"
        # releasing the lag converges to bit-exact
        replica.link.lag_records = 0
        group.pump()
        assert replica.lag(group.acked_lsn) == 0
        assert_replica_bit_exact(replica, group.primary)
        group.close()

    def test_partition_heals_to_zero_divergence(self, tmp_path):
        group, _ = make_group(tmp_path, n_replicas=2)
        sick = group.replicas[0]
        for op in OPS[:60]:
            apply_group_op(group, op)
        sick.link.partitioned = True
        for op in OPS[60:200]:
            apply_group_op(group, op)
        assert sick.lag(group.acked_lsn) > 0
        assert group.replicas[1].lag(group.acked_lsn) == 0
        sick.link.partitioned = False
        group.catch_up_replicas()
        assert sick.lag(group.acked_lsn) == 0
        assert_replica_bit_exact(sick, group.primary)
        group.close()

    def test_dropped_records_heal_from_the_wal(self, tmp_path):
        group, _ = make_group(tmp_path, n_replicas=1)
        replica = group.replicas[0]
        for op in OPS[:50]:
            apply_group_op(group, op)
        replica.link.drop_next(5)
        for op in OPS[50:120]:
            apply_group_op(group, op)
        assert replica.link.dropped == 5
        assert replica.stalled  # a gap: buffered records cannot apply
        group.catch_up_replicas()
        assert replica.lag(group.acked_lsn) == 0
        assert not replica.stalled
        assert_replica_bit_exact(replica, group.primary)
        group.close()

    def test_injected_send_faults_behave_like_drops(self, tmp_path):
        faults = FaultInjector()
        faults.inject_error("replication.send", times=4, after=50)
        group, _ = make_group(tmp_path, n_replicas=1, faults=faults)
        replica = group.replicas[0]
        for op in OPS[:100]:
            apply_group_op(group, op)
        assert replica.link.dropped == 4
        group.catch_up_replicas()
        assert_replica_bit_exact(replica, group.primary)
        group.close()

    def test_reordered_delivery_applies_in_lsn_order(self, tmp_path):
        group, _ = make_group(tmp_path, n_replicas=1)
        replica = group.replicas[0]
        replica.link.partitioned = True  # let a batch build up
        for op in OPS[:30]:
            apply_group_op(group, op)
        replica.link.partitioned = False
        replica.link.reorder_next(replica.link.queued)
        group.pump()
        assert replica.lag(group.acked_lsn) == 0
        assert_replica_bit_exact(replica, group.primary)
        group.close()

    def test_late_joiner_bootstraps_from_checkpoint_image(self, tmp_path):
        group, _ = make_group(tmp_path)
        for op in OPS:
            apply_group_op(group, op)
        # the full workload checkpointed and pruned: lsn 1 is gone, so the
        # joiner *must* come up through the image + tail path
        joiner = group.add_replica("late")
        assert joiner.lag(group.acked_lsn) == 0
        assert_replica_bit_exact(joiner, group.primary)
        group.close()

    def test_no_backend_within_staleness_raises(self, tmp_path):
        group, _ = make_group(tmp_path, n_replicas=1, staleness=0)
        replica = group.replicas[0]
        replica.link.partitioned = True
        for op in OPS[:40]:
            apply_group_op(group, op)
        group.mark_primary_dead()
        with pytest.raises(StalenessExceededError):
            group.query("pa", qt=group.tnow, varrho=2.0)
        group.close()


class TestFailover:
    @pytest.mark.parametrize("site", GROUP_CRASH_SITES)
    def test_primary_kill_matrix_loses_no_acknowledged_write(self, site, tmp_path, reference):  # noqa: F811
        faults = FaultInjector()
        after = {
            "checkpoint.write": 6,
            "checkpoint.manifest": 6,
            "advance.apply": 120,
            "replication.send": 900,  # two sends per record
        }
        faults.inject_crash(site, after=after.get(site, 450))
        group, _ = make_group(tmp_path, n_replicas=2, faults=faults)
        acked = 0
        crashed = False
        for op in OPS:
            try:
                apply_group_op(group, op)
                acked += 1
            except InjectedCrashError:
                crashed = True
                break
        assert crashed, f"site {site} never crashed the workload"

        durable = group.acked_lsn
        assert durable >= acked  # every acknowledged write is in the WAL
        faults.clock.sleep(group.coordinator.lease_timeout + 1)
        promoted = group.maybe_failover()
        assert promoted is not None
        # the promoted replica replayed the durable WAL to its end, then
        # logged the epoch-bump record
        assert promoted.wal_lsn == durable + 1
        assert promoted.role == "primary"
        assert promoted.audit() == []
        assert group.epoch == 2

        # the group keeps serving: finish the workload through the new
        # primary and match the uncrashed reference bit-for-bit
        for op in OPS[durable:]:
            apply_group_op(group, op)
        assert_states_match(group.primary, reference)
        # a crash mid-send can leave a gap on a surviving replica's link;
        # the periodic healing pass closes it from the durable WAL
        group.catch_up_replicas()
        for replica in group.replicas:
            assert replica.lag(group.acked_lsn) == 0
            assert_replica_bit_exact(replica, group.primary)
        group.close()

    def test_lease_expiry_triggers_failover_without_explicit_kill(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(replication_module, "LEASE_TIMEOUT", 2.0)
        group, faults = make_group(tmp_path)
        for op in OPS[:100]:
            apply_group_op(group, op)
        assert group.maybe_failover() is None  # lease fresh: no failover
        faults.clock.sleep(2.5)
        promoted = group.maybe_failover()
        assert promoted is not None and promoted.role == "primary"
        assert group.primary_alive
        group.close()

    def test_failover_promotes_most_caught_up_replica(self, tmp_path):
        group, faults = make_group(tmp_path, n_replicas=2)
        group.replicas[0].link.partitioned = True
        for op in OPS[:150]:
            apply_group_op(group, op)
        assert group.replicas[0].applied_lsn < group.replicas[1].applied_lsn
        faults.clock.sleep(10)
        group.maybe_failover()
        assert group.primary_name == "replica-1"
        group.close()

    def test_failed_over_group_survives_a_second_failover(self, tmp_path):
        group, faults = make_group(tmp_path, n_replicas=2)
        for op in OPS[:100]:
            apply_group_op(group, op)
        faults.clock.sleep(10)
        group.failover()
        for op in OPS[group.acked_lsn - 1:200]:  # -1: the epoch record
            apply_group_op(group, op)
        faults.clock.sleep(10)
        group.failover()
        assert group.epoch == 3
        assert group.primary.audit() == []
        assert not group.replicas  # both replicas promoted away
        group.close()

    def test_failover_with_no_promotable_replica_raises(self, tmp_path):
        group, faults = make_group(tmp_path, n_replicas=0)
        for op in OPS[:40]:
            apply_group_op(group, op)
        faults.clock.sleep(10)
        with pytest.raises(FailoverError):
            group.failover()

    def test_requires_durable_primary(self):
        primary = PDRServer(small_system_config(), expected_objects=N_OBJECTS)
        with pytest.raises(InvalidParameterError, match="durable"):
            ReplicationGroup(primary, n_replicas=1)


class TestFencing:
    def test_old_primary_writes_raise_after_failover(self, tmp_path):
        group, faults = make_group(tmp_path)
        for op in OPS[:100]:
            apply_group_op(group, op)
        old = group.primary
        faults.clock.sleep(10)
        group.failover()
        assert old.role == "fenced"
        with pytest.raises(NotPrimaryError):
            old.report(0, 50.0, 50.0, 0.0, 0.0)
        with pytest.raises(NotPrimaryError):
            old.retire(0)
        with pytest.raises(NotPrimaryError):
            old.advance_to(old.tnow + 1)
        group.close()

    def test_replicas_reject_stale_epoch_records(self, tmp_path):
        group, faults = make_group(tmp_path, n_replicas=2)
        for op in OPS[:100]:
            apply_group_op(group, op)
        faults.clock.sleep(10)
        group.failover()
        survivor = group.replicas[0]
        before = np.array(survivor.server.pa.state_arrays()["coeffs"], copy=True)
        lsn = survivor.applied_lsn + 1
        # a resurrected epoch-1 primary tries to ship a forged record
        forged = ShippedRecord(
            epoch=1,
            record={"op": "report", "lsn": lsn, "t": survivor.server.tnow,
                    "oid": 0, "x": 50.0, "y": 50.0, "vx": 0.0, "vy": 0.0},
        )
        survivor.offer(forged)
        survivor.drain()
        assert survivor.fenced_rejects == 1
        assert survivor.applied_lsn == lsn - 1  # nothing applied
        assert np.array_equal(
            survivor.server.pa.state_arrays()["coeffs"], before
        )
        group.close()

    def test_replica_servers_refuse_direct_writes(self, tmp_path):
        group, _ = make_group(tmp_path, n_replicas=1)
        with pytest.raises(NotPrimaryError):
            group.replicas[0].server.report(0, 50.0, 50.0, 0.0, 0.0)
        group.close()

    def test_epoch_survives_recovery_of_the_state_dir(self, tmp_path):
        group, faults = make_group(tmp_path)
        for op in OPS[:100]:
            apply_group_op(group, op)
        faults.clock.sleep(10)
        group.failover()
        state_dir = group.state_dir
        group.primary.close()
        recovered = PDRServer.recover(state_dir)
        assert recovered.epoch == 2  # the epoch record replayed
        recovered.close()


# ----------------------------------------------------------------------
# property: arbitrary WAL prefix + catch-up always converges
# ----------------------------------------------------------------------
_op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["report", "report", "report", "retire", "advance"]),
        st.integers(min_value=0, max_value=7),
        st.floats(min_value=5.0, max_value=95.0),
        st.floats(min_value=5.0, max_value=95.0),
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=-1.0, max_value=1.0),
    ),
    min_size=5,
    max_size=40,
)


@given(raw_ops=_op_strategy, cut=st.integers(min_value=0, max_value=60))
@settings(max_examples=20, deadline=None)
def test_replica_prefix_then_catchup_converges(raw_ops, cut):
    """Satellite: a replica that saw an arbitrary WAL prefix, then catches
    up, reaches the primary's audit-clean state for random interleavings."""
    tmp = tempfile.mkdtemp(prefix="repro-replprop-")
    try:
        faults = FaultInjector()
        rc = durable_config(tmp, faults=faults, interval=3)
        primary = PDRServer(small_system_config(), expected_objects=16, reliability=rc)
        group = ReplicationGroup(
            primary, n_replicas=1, staleness_bound=0
        )
        replica = group.replicas[0]
        live = set()
        tnow = 0
        for i, (kind, oid, x, y, vx, vy) in enumerate(raw_ops):
            if i == cut:
                replica.link.partitioned = True  # replica saw only a prefix
            if kind == "advance":
                tnow += 1
                group.advance_to(tnow)
            elif kind == "retire":
                if oid in live:
                    group.retire(oid)
                    live.discard(oid)
            else:
                group.report(oid, x, y, vx, vy)
                live.add(oid)
        replica.catch_up(group.state_dir)
        replica.link.partitioned = False
        group.pump()  # stale queued records must be ignored, not re-applied
        assert replica.applied_lsn == group.acked_lsn
        assert_replica_bit_exact(replica, group.primary)
        assert replica.server.tnow == group.primary.tnow
        group.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


class TestStatus:
    def test_status_and_reliability_report_shapes(self, tmp_path):
        group, _ = make_group(tmp_path, n_replicas=2)
        for op in OPS[:60]:
            apply_group_op(group, op)
        status = group.status()
        assert status["epoch"] == 1
        assert status["primary"]["alive"] is True
        assert len(status["replicas"]) == 2
        assert all(r["lag"] == 0 for r in status["replicas"])
        report = group.reliability_report()
        assert report["replication"]["epoch"] == 1
        assert report["admission"] is None  # no admission configured
        assert report["wal_lsn"] == group.acked_lsn
        group.close()
