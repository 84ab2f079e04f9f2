"""Resource-exhaustion robustness: budgets, retention, fsyncgate, read-only.

Covers the disk-budget layer end to end:

* **fsyncgate**: a failed write/flush/fsync permanently poisons that WAL
  descriptor — the regression test pins that no ``os.fsync`` is ever
  issued on a poisoned descriptor again (``UpdateLog.fsync_calls``
  freezes at the poisoning) and that healing opens a *fresh* segment
  whose LSN chain stays contiguous through recovery;
* **watermarks**: crossing the soft limit checkpoints-then-prunes,
  crossing the hard limit flips the server to read-only degraded mode
  (queries serve, writes refuse with ``retry_after``) and restoring the
  budget plus a probe flips it back;
* **retention** (property-tested): no prunable segment ever carries a
  record above the newest durable checkpoint's LSN or any replica's
  acknowledged LSN;
* **replica healing**: a replica rejoining from beyond the pruned
  horizon bootstraps from the checkpoint image and converges bit-exact;
* **fd hygiene**: checkpoint rotation and recover cycles do not leak
  WAL descriptors;
* the ``read_only`` wire error carries ``retry_after`` through the TCP
  front door, and a couple of seeded ``chaos --resources`` campaigns
  run green in-process.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import small_system_config
from repro import PDRServer, SystemConfig
from repro.core.errors import ReadOnlyError, RecoveryError, WALWriteError
from repro.reliability.faults import FaultInjector
from repro.reliability.integrity import verify_state_dir
from repro.reliability.recovery import records_from_lsn
from repro.reliability.replication import ReplicationGroup
from repro.reliability.resources import (
    prunable_wal_segments,
    prune_retention,
    state_dir_usage,
)
from repro.reliability.statedir import checkpoint_seqs, checkpoints, scan_segment, wal_path
from repro.reliability.validation import ReliabilityConfig, ResourceConfig


def make_server(state_dir, faults=None, resources=None, fsync=True,
                checkpoint_interval=0):
    return PDRServer(
        small_system_config(),
        expected_objects=64,
        reliability=ReliabilityConfig(
            state_dir=str(state_dir),
            checkpoint_interval=checkpoint_interval,
            fsync=fsync,
            faults=faults,
            resources=resources or ResourceConfig(),
        ),
    )


def seed_reports(server, n, seed=5, start_oid=0):
    rng = np.random.default_rng(seed)
    for i in range(n):
        server.report(
            start_oid + i,
            float(rng.uniform(5.0, 95.0)), float(rng.uniform(5.0, 95.0)),
            float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0)),
        )


# ----------------------------------------------------------------------
# fsyncgate: poisoned descriptors are never fsynced again
# ----------------------------------------------------------------------
def test_fsync_failure_poisons_descriptor_and_never_retries(tmp_path):
    faults = FaultInjector()
    server = make_server(tmp_path / "state", faults=faults,
                        resources=ResourceConfig())
    seed_reports(server, 4)
    manager = server._manager
    wal = manager._wal
    assert wal.fsync_calls >= 4

    faults.inject_enospc("wal_fsync")
    with pytest.raises(WALWriteError):
        server.report(50, 10.0, 10.0, 0.1, 0.1)

    # the descriptor is poisoned and the fsync counter froze: the failed
    # fsync never reached os.fsync, and nothing ever will on this fd
    assert wal.poisoned
    frozen = wal.fsync_calls
    assert server.read_only
    assert manager.wal_poisoned

    # refused writes don't touch the poisoned descriptor either
    with pytest.raises(ReadOnlyError) as exc_info:
        server.report(51, 11.0, 11.0, 0.1, 0.1)
    assert exc_info.value.retry_after == pytest.approx(0.5)
    assert wal.fsync_calls == frozen

    # queries still serve while degraded
    assert server.query("fr", qt=0, varrho=2.0) is not None

    # the probe heals by opening a FRESH segment (seq bumped), never by
    # retrying the poisoned descriptor
    old_seq = manager.seq
    assert server.probe_resources()
    assert not server.read_only
    assert manager.seq == old_seq + 1
    assert manager._wal is not wal

    seed_reports(server, 3, start_oid=60)
    assert wal.fsync_calls == frozen  # old fd untouched, forever
    assert manager._wal.fsync_calls >= 3


def test_fresh_segment_preserves_lsn_chain_through_recovery(tmp_path):
    faults = FaultInjector()
    server = make_server(tmp_path / "state", faults=faults,
                        resources=ResourceConfig())
    seed_reports(server, 5)
    faults.inject_enospc("wal_fsync")
    with pytest.raises(WALWriteError):
        server.report(50, 10.0, 10.0, 0.1, 0.1)
    assert server.probe_resources()
    seed_reports(server, 5, start_oid=60)
    live_lsn = server._manager.lsn

    # the replay cursor walks both segments without a gap
    lsns = [int(r["lsn"]) for r in records_from_lsn(str(tmp_path / "state"), 0)]
    assert lsns == list(range(1, live_lsn + 1))

    server._manager.close()
    recovered = PDRServer.recover(str(tmp_path / "state"))
    assert recovered._manager.lsn == live_lsn
    assert sorted(m.oid for m in recovered.table.motions()) == \
        sorted(m.oid for m in server.table.motions())
    recovered._manager.close()


def test_short_write_tears_line_then_heals_cleanly(tmp_path):
    faults = FaultInjector()
    server = make_server(tmp_path / "state", faults=faults,
                        resources=ResourceConfig())
    seed_reports(server, 4)
    acked = server._manager.lsn
    wal_path = server._manager._wal.path

    faults.inject_short_write("wal_write", fraction=0.5)
    with pytest.raises(WALWriteError):
        server.report(50, 10.0, 10.0, 0.1, 0.1)
    with open(wal_path, "rb") as fh:
        assert not fh.read().endswith(b"\n")  # a genuinely torn tail

    assert server.probe_resources()
    seed_reports(server, 2, start_oid=60)

    server._manager.close()
    recovered = PDRServer.recover(str(tmp_path / "state"))
    assert recovered._manager.lsn == acked + 2  # torn record gone, acked intact
    recovered._manager.close()


def test_checkpoint_on_a_poisoned_wal_leaves_a_directory_that_verifies(tmp_path):
    """A checkpoint taken while the WAL is poisoned rotates past the torn
    segment; it must cut that segment back to its acknowledged prefix, or
    the torn line ends up mid-log, where verify (and boot) call it corrupt."""
    state_dir = str(tmp_path / "state")
    faults = FaultInjector()
    server = PDRServer(
        SystemConfig(), expected_objects=50,
        reliability=ReliabilityConfig(
            state_dir=state_dir, faults=faults, checkpoint_interval=0
        ),
    )
    server.report_batch([(i, 100.0 + i, 200.0, 0.5, 0.5) for i in range(10)])
    server.checkpoint()
    server.report_batch([(i, 110.0 + i, 210.0, 0.5, 0.5) for i in range(10)])
    faults.inject_short_write("wal_write", fraction=0.5)
    with pytest.raises(WALWriteError):
        server.report(3, 300.0, 300.0, 0.1, 0.1)
    assert server.read_only and server.wal_lsn == 20
    server.checkpoint()  # allowed while read-only

    report = verify_state_dir(state_dir)
    assert report.clean, report.summary()
    server._manager.close()
    recovered = PDRServer.recover(state_dir)
    assert recovered.wal_lsn == 20 and len(recovered.table) == 10

    assert recovered.probe_resources()
    recovered.report(3, 300.0, 300.0, 0.1, 0.1)
    assert recovered.wal_lsn == 21
    recovered._manager.close()
    again = PDRServer.recover(state_dir)
    assert again.wal_lsn == 21
    assert again.table.motion_of(3).x == 300.0
    again._manager.close()


# ----------------------------------------------------------------------
# watermarks
# ----------------------------------------------------------------------
def test_hard_watermark_enters_readonly_and_budget_restore_exits(tmp_path):
    resources = ResourceConfig()
    server = make_server(tmp_path / "state", resources=resources)
    seed_reports(server, 4)

    resources.hard_limit_bytes = 1
    # the crossing write itself succeeds — the budget is evaluated after
    # the append — and flips the server to degraded mode
    server.report(50, 10.0, 10.0, 0.1, 0.1)
    assert server.read_only
    with pytest.raises(ReadOnlyError):
        server.report(51, 11.0, 11.0, 0.1, 0.1)
    assert server.query("pa", qt=0, varrho=2.0) is not None

    report = server.reliability_report()
    assert report["read_only"]
    assert report["resources"]["budget_state"] == "hard"

    resources.hard_limit_bytes = None
    assert server.probe_resources()
    assert not server.read_only
    server.report(52, 12.0, 12.0, 0.1, 0.1)
    events = server._manager.resources.events
    assert events["readonly_enter"] == 1
    assert events["readonly_exit"] == 1
    server._manager.close()


def test_each_readonly_transition_is_one_journal_record(tmp_path):
    """A hard-watermark entry and a probe exit are journaled once each, by
    the server (``readonly_enter``/``readonly_exit``); the resource manager
    only counts them."""
    from repro.telemetry import JOURNAL

    resources = ResourceConfig()
    server = make_server(tmp_path / "state", resources=resources)
    seed_reports(server, 4)
    since = max((r["seq"] for r in JOURNAL.recent()), default=0)
    resources.hard_limit_bytes = 1
    server.report(50, 10.0, 10.0, 0.1, 0.1)
    resources.hard_limit_bytes = None
    assert server.probe_resources()
    events = [r["event"] for r in JOURNAL.recent() if r["seq"] > since]
    assert [e for e in events if "readonly" in e] == ["readonly_enter", "readonly_exit"]
    assert "resource.hard_watermark" in events
    counted = server._manager.resources.events
    assert (counted["readonly_enter"], counted["readonly_exit"]) == (1, 1)
    server._manager.close()


def test_soft_watermark_checkpoints_then_prunes(tmp_path):
    resources = ResourceConfig()
    server = make_server(tmp_path / "state", resources=resources, fsync=False)
    seed_reports(server, 20)
    state_dir = str(tmp_path / "state")

    usage_before, _ = state_dir_usage(state_dir)
    resources.soft_limit_bytes = max(1, usage_before // 2)
    server.report(50, 10.0, 10.0, 0.1, 0.1)

    assert not server.read_only  # soft pressure degrades nothing
    events = server._manager.resources.events
    assert events["soft_watermark"] >= 1
    assert events["prune"] >= 1
    names = os.listdir(state_dir)
    assert any(n.startswith("ckpt-") for n in names)
    # the pre-checkpoint segment was released; only the live one remains
    assert [n for n in names if n.startswith("wal-")] == \
        [f"wal-{server._manager.seq:08d}.jsonl"]

    server._manager.close()
    recovered = PDRServer.recover(state_dir)
    assert recovered._manager.lsn == 21
    recovered._manager.close()


# ----------------------------------------------------------------------
# retention
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def rotated_state_dir():
    """A state dir with four WAL segments and three checkpoints taken, the
    newest two of them kept.

    A replica pinned at LSN 0 holds the line, so the checkpoints' own
    prunes leave every segment for the tests to release."""
    tmp = tempfile.mkdtemp(prefix="retention-")
    state_dir = os.path.join(tmp, "state")
    server = make_server(state_dir, fsync=False)
    server._manager.resources.replica_lsns = lambda: [0]
    for batch in range(3):
        seed_reports(server, 6, seed=batch, start_oid=batch * 10)
        server._manager.checkpoint(server)
    seed_reports(server, 4, seed=9, start_oid=40)
    manager = server._manager
    yield state_dir, manager.seq, manager.lsn
    manager.close()
    shutil.rmtree(tmp, ignore_errors=True)


@settings(max_examples=40, deadline=None)
@given(replica_lsns=st.lists(st.integers(min_value=0, max_value=30),
                             min_size=0, max_size=4))
def test_retention_never_prunes_a_needed_segment(rotated_state_dir, replica_lsns):
    """The retention property from the paper's ops appendix: a released
    segment carries no record beyond the newest durable checkpoint's LSN
    nor beyond any replica's acknowledged LSN, and is never the segment
    currently open for appends."""
    state_dir, current_seq, _lsn = rotated_state_dir
    ckpt_seq, sidecar = next(checkpoints(state_dir))
    floor = min([int(sidecar["lsn"])] + list(replica_lsns))

    for seq in prunable_wal_segments(state_dir, list(replica_lsns),
                                     current_seq=current_seq):
        assert seq != current_seq
        assert seq < ckpt_seq
        scan = scan_segment(wal_path(state_dir, seq), newest=False)
        assert scan.verdict == "clean"
        assert all(int(r["lsn"]) <= floor for r in scan.records)


def test_prune_retention_is_recoverable_afterwards(rotated_state_dir):
    state_dir, current_seq, live_lsn = rotated_state_dir
    scratch = tempfile.mkdtemp(prefix="retention-copy-")
    try:
        copy = os.path.join(scratch, "state")
        shutil.copytree(state_dir, copy)
        removed, freed = prune_retention(copy, [], current_seq=current_seq)
        assert removed > 0 and freed > 0
        recovered = PDRServer.recover(copy)
        assert recovered._manager.lsn == live_lsn
        recovered._manager.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# ----------------------------------------------------------------------
# replica healing across the pruned horizon
# ----------------------------------------------------------------------
def make_group(state_dir, resources=None, n_replicas=1):
    primary = make_server(state_dir, resources=resources, fsync=False)
    return ReplicationGroup(
        primary, n_replicas=n_replicas,
        staleness_bound=1_000_000,
    )


def _bit_exact(replica, primary):
    return np.array_equal(
        replica.server.histogram.state_arrays()["counts"],
        primary.histogram.state_arrays()["counts"],
    ) and np.array_equal(
        replica.server.pa.state_arrays()["coeffs"],
        primary.pa.state_arrays()["coeffs"],
    )


def test_replica_rejoin_after_retention_prune_bootstraps_from_image(tmp_path):
    resources = ResourceConfig()
    group = make_group(tmp_path / "state", resources=resources, n_replicas=2)
    state_dir = str(tmp_path / "state")
    for i in range(8):
        group.report(i, 10.0 + i, 20.0 + i, 0.2, -0.1)

    # one replica dies; the survivors keep acking, the budget prunes
    group.replicas.pop()
    for i in range(8, 14):
        group.report(i, 10.0 + i, 20.0 + i, 0.2, -0.1)
    manager = group.primary._manager
    manager.checkpoint(group.primary)
    manager.resources.prune()
    for i in range(14, 16):  # post-prune tail in the live segment
        group.report(i, 10.0 + i, 20.0 + i, 0.2, -0.1)

    # the horizon the dead replica would need is gone
    with pytest.raises(RecoveryError):
        list(records_from_lsn(state_dir, 0))

    # a fresh replica still converges — image bootstrap, then the tail
    rejoined = group.add_replica("rejoined")
    group.catch_up_replicas()
    assert rejoined.lag(group.acked_lsn) == 0
    assert _bit_exact(rejoined, group.primary)
    group.close()


def test_lagging_replica_heals_when_replacement_segment_is_empty(tmp_path):
    """Regression: when pruning leaves only an *empty* post-checkpoint
    segment, ``records_from_lsn`` sees no records at all — no gap to trip
    over — so catch-up used to return silently with the replica still
    lagging.  The group now falls back to the checkpoint image."""
    group = make_group(tmp_path / "state", n_replicas=1)
    state_dir = str(tmp_path / "state")
    replica = group.replicas[0]
    replica.link.partitioned = True
    for i in range(6):
        group.report(i, 10.0 + i, 20.0 + i, 0.2, -0.1)
    manager = group.primary._manager
    manager.checkpoint(group.primary)  # rotates; the new segment is empty
    prune_retention(state_dir, None, current_seq=manager.seq)
    assert replica.lag(group.acked_lsn) > 0

    replica.link.partitioned = False
    group.catch_up_replicas()
    assert replica.lag(group.acked_lsn) == 0
    assert _bit_exact(replica, group.primary)
    group.close()


def _hold_the_line(tmp_path, reliability, prune_again):
    """A *live* (merely partitioned) replica pins retention across three
    checkpoints: no pruner may drop the tail it is still owed."""
    primary = PDRServer(small_system_config(), expected_objects=64,
                        reliability=reliability)
    group = ReplicationGroup(primary, n_replicas=1, staleness_bound=1_000_000)
    replica = group.replicas[0]
    for i in range(4):
        group.report(i, 10.0 + i, 20.0 + i, 0.2, -0.1)
    replica.link.partitioned = True
    manager = group.primary._manager
    for start in (4, 8, 12):
        for i in range(start, start + 4):
            group.report(i, 10.0 + i, 20.0 + i, 0.2, -0.1)
        manager.checkpoint(group.primary)
        if prune_again:
            manager.resources.prune()

    # every record past the replica's cursor is still replayable
    tail = [int(r["lsn"]) for r in
            records_from_lsn(reliability.state_dir, replica.applied_lsn)]
    assert tail == list(range(replica.applied_lsn + 1, group.acked_lsn + 1))
    group.close()


def test_retention_holds_the_line_for_live_lagging_replicas(tmp_path):
    """A budgeted directory, pruned by its checkpoints and by hand."""
    _hold_the_line(
        tmp_path,
        ReliabilityConfig(state_dir=str(tmp_path / "state"), fsync=False,
                          resources=ResourceConfig()),
        prune_again=True,
    )


def test_retention_holds_the_line_under_the_default_config(tmp_path):
    """The default config (no budget), pruned by its checkpoints alone:
    the same retention rule runs, so the same tail survives."""
    _hold_the_line(
        tmp_path,
        ReliabilityConfig(state_dir=str(tmp_path / "state"), fsync=False),
        prune_again=False,
    )


def test_a_partitioned_replica_pins_segments_not_images(tmp_path):
    """Six checkpoints while a replica is partitioned: two images stay,
    every record past the replica's cursor stays in the log, and the
    replica converges from it once the partition heals."""
    group = make_group(tmp_path / "state", n_replicas=1)
    state_dir = str(tmp_path / "state")
    replica = group.replicas[0]
    for i in range(4):
        group.report(i, 10.0 + i, 20.0 + i, 0.2, -0.1)
    replica.link.partitioned = True
    manager = group.primary._manager
    for start in range(4, 28, 4):
        for i in range(start, start + 4):
            group.report(i, 10.0 + i % 60, 20.0 + i % 60, 0.2, -0.1)
        manager.checkpoint(group.primary)

    assert len(checkpoint_seqs(state_dir)) == 2
    assert len(list(checkpoints(state_dir))) == 2
    tail = [int(r["lsn"]) for r in records_from_lsn(state_dir, replica.applied_lsn)]
    assert replica.applied_lsn < group.acked_lsn
    assert tail == list(range(replica.applied_lsn + 1, group.acked_lsn + 1))

    replica.link.partitioned = False
    group.catch_up_replicas()
    assert replica.lag(group.acked_lsn) == 0
    assert _bit_exact(replica, group.primary)
    group.close()


# ----------------------------------------------------------------------
# fd hygiene
# ----------------------------------------------------------------------
def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc fd accounting")
def test_checkpoint_rotation_and_recover_cycles_leak_no_fds(tmp_path):
    server = make_server(tmp_path / "state", fsync=False)
    seed_reports(server, 4)
    baseline = _open_fds()
    for _ in range(8):
        server._manager.checkpoint(server)  # rotates the WAL each time
    assert _open_fds() <= baseline

    server._manager.close()
    state_dir = str(tmp_path / "state")
    baseline = _open_fds()
    for i in range(8):
        recovered = PDRServer.recover(state_dir)
        recovered.report(100 + i, 15.0, 15.0, 0.1, 0.1)
        recovered._manager.close()
    assert _open_fds() <= baseline


# ----------------------------------------------------------------------
# the wire: read_only frames carry retry_after
# ----------------------------------------------------------------------
def test_read_only_error_over_tcp_carries_retry_after(tmp_path):
    from repro.serving.client import (
        ClientConfig,
        ResilientClient,
        RetriesExhaustedError,
    )
    from repro.serving.server import ServerThread, ServingConfig

    resources = ResourceConfig()
    group = make_group(tmp_path / "state", resources=resources, n_replicas=1)
    thread = ServerThread(group, ServingConfig()).start()
    try:
        config = ClientConfig(max_attempts=3, backoff_base=0.01,
                              backoff_cap=0.02, retry_after_cap=0.05)
        with ResilientClient([thread.address], config=config) as client:
            client.report(0, 10.0, 10.0, 0.1, 0.1)
            resources.hard_limit_bytes = 1
            thread.call(group.report, 1, 11.0, 11.0, 0.1, 0.1)  # crossing write
            assert thread.call(lambda: group.primary.read_only)

            assert client.health()["read_only"] is True
            with pytest.raises(RetriesExhaustedError):
                client.report(2, 12.0, 12.0, 0.1, 0.1)
            assert client.stats["error_read_only"] >= 1
            assert client.sheds_missing_retry_after == 0  # the invariant

            # queries keep serving while degraded
            assert client.query("fr", qt_offset=0, varrho=2.0)["ok"]

            resources.hard_limit_bytes = None
            client.status()  # the status op probes degraded backends
            assert client.health()["read_only"] is False
            assert client.report(3, 13.0, 13.0, 0.1, 0.1)["ok"]
    finally:
        thread.stop()
        group.close()


# ----------------------------------------------------------------------
# seeded campaigns, in-process
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 3])
def test_resource_chaos_seeds_run_green(tmp_path, seed):
    from repro.reliability.chaos import ChaosConfig, ChaosScheduler

    result = ChaosScheduler(
        ChaosConfig(seed=seed, events=60, resources=True, shrink=False),
        str(tmp_path / "chaos"),
    ).run()
    assert result.ok, result.failure
    assert result.stats.get("refused_writes", 0) >= 0
