"""Checkpoint/replay recovery: crash anywhere, recover everywhere.

The scripted acceptance scenario of the fault-tolerance work: a
deterministic 200-tick workload is crashed at every named fault site of
the durability protocol (``wal.append``, ``report.apply``,
``advance.apply``, ``checkpoint.write``, ``checkpoint.manifest``),
recovered with :meth:`PDRServer.recover`, resumed, and compared against
an uncrashed reference run — exactly for FR answers, at coefficient level
(bit-for-bit) for PA, with a clean structural audit throughout.  Also
covered: torn WAL tails, corrupt checkpoints with fallback, WAL-only
recovery, and the fresh-directory guard.
"""

from __future__ import annotations

import json
import os
import re

import numpy as np
import pytest

from tests.conftest import small_system_config
from repro import PDRServer
from repro.core.errors import AuditError, RecoveryError, StorageError, WALWriteError
from repro.reliability.chaos import durable_verdict
from repro.reliability.faults import DURABILITY_SITES, FaultInjector, InjectedCrashError
from repro.reliability import recovery
from repro.motion import updates
from repro.reliability.recovery import audit_server
from repro.reliability.validation import ReliabilityConfig, ResourceConfig

N_TICKS = 200
N_OBJECTS = 30
CKPT_INTERVAL = 25

CRASH_SITES = (
    "wal.append",
    "report.apply",
    "advance.apply",
    "checkpoint.write",
    "checkpoint.manifest",
)


def make_workload(n_ticks: int = N_TICKS, seed: int = 42):
    """A deterministic op list, 1:1 with WAL LSNs (every op is accepted)."""
    rng = np.random.default_rng(seed)
    live = set()
    ops = []
    for t in range(1, n_ticks + 1):
        ops.append(("advance", t))
        for oid in rng.choice(N_OBJECTS, size=3, replace=False):
            oid = int(oid)
            x, y = rng.uniform(1.0, 99.0, size=2)
            vx, vy = rng.uniform(-1.5, 1.5, size=2)
            ops.append(("report", oid, float(x), float(y), float(vx), float(vy)))
            live.add(oid)
        if t % 17 == 0 and live:
            ops.append(("retire", int(sorted(live)[0])))
            live.discard(sorted(live)[0])
    return ops


def apply_op(server: PDRServer, op) -> None:
    if op[0] == "advance":
        server.advance_to(op[1])
    elif op[0] == "retire":
        assert server.retire(op[1]) is True
    else:
        motion = server.report(*op[1:])
        assert motion is not None


OPS = make_workload()


@pytest.fixture(scope="module")
def reference():
    """The uncrashed run every recovery must reproduce."""
    server = PDRServer(small_system_config(), expected_objects=N_OBJECTS)
    for op in OPS:
        apply_op(server, op)
    return server


def durable_config(tmp_path, faults=None, interval=CKPT_INTERVAL, **kwargs):
    return ReliabilityConfig(
        state_dir=os.path.join(str(tmp_path), "state"),
        checkpoint_interval=interval,
        fsync=False,  # keep the suite fast; the fsync path is exercised below
        faults=faults,
        **kwargs,
    )


def assert_states_match(recovered: PDRServer, reference: PDRServer) -> None:
    """Exact FR answers, bit-exact PA coefficients, clean audit."""
    assert recovered.tnow == reference.tnow
    assert recovered.object_count() == reference.object_count()
    assert np.array_equal(
        recovered.pa.state_arrays()["coeffs"], reference.pa.state_arrays()["coeffs"]
    )
    assert np.array_equal(
        recovered.histogram.state_arrays()["counts"],
        reference.histogram.state_arrays()["counts"],
    )
    for qt in (recovered.tnow, recovered.tnow + 3):
        for method in ("fr", "pa"):
            got = recovered.query(method, qt=qt, rho=0.003)
            want = reference.query(method, qt=qt, rho=0.003)
            assert {r.as_tuple() for r in got.regions} == {
                r.as_tuple() for r in want.regions
            }
    assert recovered.audit() == []


class TestCleanRecovery:
    def test_recover_after_clean_shutdown(self, tmp_path, reference):
        rc = durable_config(tmp_path)
        server = PDRServer(small_system_config(), expected_objects=N_OBJECTS, reliability=rc)
        for op in OPS:
            apply_op(server, op)
        assert server.wal_lsn == len(OPS)
        server.close()
        recovered = PDRServer.recover(rc.state_dir)
        assert recovered.wal_lsn == len(OPS)
        assert_states_match(recovered, reference)
        recovered.close()

    def test_recovered_server_keeps_serving_updates(self, tmp_path):
        rc = durable_config(tmp_path)
        server = PDRServer(small_system_config(), expected_objects=N_OBJECTS, reliability=rc)
        for op in OPS[:100]:
            apply_op(server, op)
        server.close()
        recovered = PDRServer.recover(rc.state_dir)
        for op in OPS[100:]:
            apply_op(recovered, op)
        assert recovered.wal_lsn == len(OPS)
        assert recovered.audit() == []
        recovered.close()
        # and the continued log is itself recoverable
        again = PDRServer.recover(rc.state_dir)
        assert again.wal_lsn == len(OPS)
        again.close()

    def test_wal_only_recovery_without_checkpoints(self, tmp_path, reference):
        rc = durable_config(tmp_path, interval=0)
        server = PDRServer(small_system_config(), expected_objects=N_OBJECTS, reliability=rc)
        for op in OPS:
            apply_op(server, op)
        server.close()
        assert not any(n.startswith("ckpt-") for n in os.listdir(rc.state_dir))
        recovered = PDRServer.recover(rc.state_dir)
        assert_states_match(recovered, reference)
        recovered.close()

    def test_replay_in_waves_equals_the_live_server(self, tmp_path):
        """Recovery coalesces each WAL run of ``report`` records into one
        wave; runs broken by ``retire``, ``advance`` and ``epoch`` records
        and a run holding one oid twice must still replay to the live
        server's state (which applied every record one at a time)."""
        rng = np.random.default_rng(3)

        def reports(oids):
            return [
                ("report", int(oid), *(float(v) for v in rng.uniform(1.0, 99.0, size=2)),
                 *(float(v) for v in rng.uniform(-1.5, 1.5, size=2)))
                for oid in oids
            ]

        ops = [("advance", 1), *reports(range(20)), ("retire", 4)]
        ops += [*reports(range(5, 12)), ("epoch", 2), *reports([13, 14])]
        ops += [("advance", 2), *reports([0, 1, 2, 1, 3])]  # oid 1 twice in one run
        ops += [("retire", 0), ("advance", 4), *reports(range(8, 20))]
        rc = durable_config(tmp_path, interval=0)
        live = PDRServer(small_system_config(), expected_objects=N_OBJECTS, reliability=rc)
        for op in ops:
            if op[0] == "epoch":
                live.promote(op[1])
            else:
                apply_op(live, op)
        assert live.wal_lsn == len(ops)
        live.close()
        recovered = PDRServer.recover(rc.state_dir)
        assert recovered.wal_lsn == len(ops)
        assert recovered.epoch == live.epoch == 2
        assert sorted(recovered.table.motions(), key=lambda m: m.oid) == sorted(
            live.table.motions(), key=lambda m: m.oid
        )
        assert_states_match(recovered, live)
        recovered.close()

    def test_fsync_path(self, tmp_path):
        rc = ReliabilityConfig(
            state_dir=os.path.join(str(tmp_path), "state"),
            checkpoint_interval=5,
            fsync=True,
        )
        server = PDRServer(small_system_config(), expected_objects=N_OBJECTS, reliability=rc)
        for op in OPS[:40]:
            apply_op(server, op)
        server.close()
        recovered = PDRServer.recover(rc.state_dir)
        assert recovered.wal_lsn == 40
        recovered.close()


class TestCrashMatrix:
    @pytest.mark.parametrize("site", CRASH_SITES)
    def test_crash_recover_resume_matches_reference(self, site, tmp_path, reference):
        faults = FaultInjector()
        # crash deep enough into the run that several checkpoints exist;
        # sites are hit at very different rates (advance once per tick,
        # wal.append once per accepted op, checkpoints every 25 ticks)
        after = {"checkpoint.write": 6, "checkpoint.manifest": 6, "advance.apply": 120}
        faults.inject_crash(site, after=after.get(site, 450))
        rc = durable_config(tmp_path, faults=faults)
        server = PDRServer(small_system_config(), expected_objects=N_OBJECTS, reliability=rc)
        crashed = False
        for op in OPS:
            try:
                apply_op(server, op)
            except InjectedCrashError:
                crashed = True
                break
        assert crashed, f"site {site} never crashed the workload"

        recovered = PDRServer.recover(rc.state_dir)
        assert recovered.audit() == []
        # the WAL LSN counts accepted ops, so it is the resume cursor:
        # everything logged (even if never applied pre-crash) was replayed
        resume_from = recovered.wal_lsn
        assert 0 < resume_from < len(OPS)
        for op in OPS[resume_from:]:
            apply_op(recovered, op)
        assert recovered.wal_lsn == len(OPS)
        assert_states_match(recovered, reference)
        recovered.close()

    def test_repeated_crashes_during_recovery_workload(self, tmp_path, reference):
        """Crash, recover, crash again at a different site, recover again."""
        faults = FaultInjector()
        faults.inject_crash("report.apply", after=200)
        rc = durable_config(tmp_path, faults=faults)
        server = PDRServer(small_system_config(), expected_objects=N_OBJECTS, reliability=rc)
        cursor = 0
        with pytest.raises(InjectedCrashError):
            for op in OPS:
                apply_op(server, op)
                cursor += 1
        faults2 = FaultInjector()
        faults2.inject_crash("advance.apply", after=100)
        recovered = PDRServer.recover(rc.state_dir, faults=faults2)
        with pytest.raises(InjectedCrashError):
            for op in OPS[recovered.wal_lsn:]:
                apply_op(recovered, op)
        final = PDRServer.recover(rc.state_dir)
        for op in OPS[final.wal_lsn:]:
            apply_op(final, op)
        assert_states_match(final, reference)
        final.close()


# Hits to skip per durability site: WAL sites fire once per accepted op,
# checkpoint-cycle sites once per checkpoint (every CKPT_INTERVAL ticks),
# so each dies with several checkpoints and a pruned generation behind it.
SITE_AFTER = {"wal.append": 450, "wal_write": 450, "wal_fsync": 450, "wal.reopen": 0}


class TestEveryDurabilitySite:
    """Every crash window of the durability protocol, crashed in process on
    the standard workload: the rule fires, and the directory it leaves
    verifies clean, recovers every acked write, audits clean and answers FR
    as brute force does — the process plane's checks at tier-1 cost."""

    @pytest.mark.parametrize(
        "site, retention",
        [(site, False) for site in DURABILITY_SITES] + [("wal.prune", True)],
    )
    def test_crash_leaves_a_directory_the_durable_oracles_pass(
        self, site, retention, tmp_path
    ):
        faults = FaultInjector()
        faults.inject_crash(
            site, after=SITE_AFTER.get(site, 3),
            torn=0.5 if site == "wal_write" else None,
        )
        if site == "wal.reopen":
            faults.inject_eio("wal_write", after=300)  # poison the WAL first
        rc = ReliabilityConfig(
            state_dir=os.path.join(str(tmp_path), "state"),
            checkpoint_interval=CKPT_INTERVAL,
            fsync=site == "wal_fsync",
            faults=faults,
            # the retention pruner stands in for the interval pruner
            resources=ResourceConfig() if retention else None,
        )
        server = PDRServer(small_system_config(), expected_objects=N_OBJECTS, reliability=rc)
        acked = 0
        with pytest.raises(InjectedCrashError, match=re.escape(repr(site))):
            for op in OPS:
                try:
                    apply_op(server, op)
                except WALWriteError:
                    server.probe_resources()  # a fresh segment past the poisoned one
                    apply_op(server, op)
                acked = server.wal_lsn
        assert acked > 0
        # the restart: recovery repairs a torn tail, and audits
        PDRServer.recover(rc.state_dir).close()
        assert durable_verdict(rc.state_dir, acked) is None


class TestCorruptionHandling:
    def _run_durable(self, tmp_path, n_ops=150):
        rc = durable_config(tmp_path)
        server = PDRServer(small_system_config(), expected_objects=N_OBJECTS, reliability=rc)
        for op in OPS[:n_ops]:
            apply_op(server, op)
        server.close()
        return rc, server

    def test_torn_wal_tail_is_truncated(self, tmp_path):
        rc, server = self._run_durable(tmp_path)
        wal_files = sorted(
            n for n in os.listdir(rc.state_dir) if n.startswith("wal-")
        )
        tail = os.path.join(rc.state_dir, wal_files[-1])
        with open(tail, "ab") as fh:
            fh.write(b'{"op": "report", "t": 99, "oid"')  # torn mid-record
        recovered = PDRServer.recover(rc.state_dir)
        assert recovered.wal_lsn == server.wal_lsn  # torn record dropped
        assert recovered.audit() == []
        # the repaired log accepts new appends and stays recoverable
        apply_op(recovered, OPS[150])
        recovered.close()
        again = PDRServer.recover(rc.state_dir)
        assert again.wal_lsn == server.wal_lsn + 1
        again.close()

    def test_corrupt_newest_checkpoint_falls_back_to_older(self, tmp_path, reference):
        rc = durable_config(tmp_path)
        server = PDRServer(small_system_config(), expected_objects=N_OBJECTS, reliability=rc)
        for op in OPS:
            apply_op(server, op)
        server.close()
        ckpts = sorted(
            n for n in os.listdir(rc.state_dir)
            if n.startswith("ckpt-") and n.endswith(".npz")
        )
        assert len(ckpts) >= 2  # recovery.KEEP_CHECKPOINTS
        newest = os.path.join(rc.state_dir, ckpts[-1])
        with open(newest, "wb") as fh:
            fh.write(b"not a zip archive")
        recovered = PDRServer.recover(rc.state_dir)
        assert_states_match(recovered, reference)
        recovered.close()

    def test_all_checkpoints_corrupt_is_a_recovery_error(self, tmp_path):
        rc, _ = self._run_durable(tmp_path)
        for name in os.listdir(rc.state_dir):
            if name.startswith("ckpt-") and name.endswith(".npz"):
                with open(os.path.join(rc.state_dir, name), "wb") as fh:
                    fh.write(b"garbage")
        # no loadable checkpoint and the early WAL segments were pruned:
        # recovery must refuse rather than silently lose updates
        with pytest.raises(RecoveryError):
            PDRServer.recover(rc.state_dir)

    def test_missing_directory_is_a_recovery_error(self, tmp_path):
        with pytest.raises(RecoveryError):
            PDRServer.recover(os.path.join(str(tmp_path), "nowhere"))

    def test_fresh_dir_guard_refuses_existing_state(self, tmp_path):
        rc, _ = self._run_durable(tmp_path)
        with pytest.raises(StorageError, match="recover"):
            PDRServer(
                small_system_config(), expected_objects=N_OBJECTS, reliability=rc
            )

    def test_wal_gap_is_detected(self, tmp_path):
        rc, _ = self._run_durable(tmp_path, n_ops=30)
        wal_files = sorted(
            n for n in os.listdir(rc.state_dir) if n.startswith("wal-")
        )
        tail = os.path.join(rc.state_dir, wal_files[-1])
        with open(tail, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        del lines[len(lines) // 2]  # drop a record from the middle
        with open(tail, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        with pytest.raises(RecoveryError, match="gap"):
            PDRServer.recover(rc.state_dir)


class TestObjectIdRange:
    def test_oid_beyond_float_precision_survives_checkpoint_and_recovery(self, tmp_path):
        rc = durable_config(tmp_path, interval=0)
        server = PDRServer(small_system_config(), expected_objects=N_OBJECTS, reliability=rc)
        big = 2**53 + 1
        assert server.report(big, 40.0, 40.0, 0.1, 0.0) is not None
        assert server.report(7, 60.0, 60.0, 0.0, 0.0) is not None
        server.checkpoint()
        server.advance_to(1)
        server.close()
        recovered = PDRServer.recover(rc.state_dir)
        try:
            assert recovered.table.motion_of(big) == server.table.motion_of(big)
            assert recovered.report(big, 41.0, 40.0, 0.1, 0.0) is not None  # no ghost
            assert recovered.object_count() == 2
            assert recovered.histogram.total_at(recovered.tnow) == 2
            assert recovered.audit() == []
        finally:
            recovered.close()

    def test_oid_beyond_int64_dies_at_the_validator_before_the_wal(self, tmp_path):
        """The table stores oids as int64: 2**63 would overflow *after* its
        WAL record was appended, poisoning every later recovery."""
        rc = durable_config(tmp_path, interval=0)
        server = PDRServer(small_system_config(), expected_objects=N_OBJECTS, reliability=rc)
        assert server.report(2**63 - 1, 10.0, 10.0, 0.0, 0.0) is not None
        lsn = server.wal_lsn
        assert server.report(2**63, 20.0, 20.0, 0.0, 0.0) is None
        assert server.report_batch(
            [(2**63, 20.0, 20.0, 0.0, 0.0), (1, 30.0, 30.0, 0.0, 0.0), (2**70, 1.0, 1.0, 0.0, 0.0)]
        ) == [None, server.table.motion_of(1), None]
        assert server.retire(2**63) is False
        assert server.wal_lsn == lsn + 1  # only object 1 was logged
        assert server.dead_letters.counts == {"bad_oid": 3, "unknown_oid": 1}
        server.close()
        recovered = PDRServer.recover(rc.state_dir)
        try:
            assert sorted(m.oid for m in recovered.table.motions()) == [1, 2**63 - 1]
        finally:
            recovered.close()


class TestAudit:
    def test_audit_detects_structure_divergence(self):
        server = PDRServer(small_system_config(), expected_objects=N_OBJECTS)
        for op in OPS[:50]:
            apply_op(server, op)
        assert server.audit() == []
        # silently drop an object from the table only: every structure
        # now disagrees with the registry, which the audit must surface
        oid = next(iter(server.table.motions())).oid
        server.table._row_of.pop(oid)
        violations = server.audit(raise_on_violation=False)
        assert any("tree holds" in v for v in violations)
        assert any("histogram total" in v for v in violations)
        with pytest.raises(AuditError) as info:
            audit_server(server)
        assert info.value.violations == violations

    def test_audit_names_the_one_timestamp_whose_slot_was_zeroed(self, reference):
        """The recount is a chunked (rows, H + 1) array expression over the
        table's columns; the object-by-object loop it replaced is the oracle
        here.
        By tick 200 the workload holds motions that outlived their window
        and motions that left the domain — both must be left out."""
        server, horizon = reference, reference.config.horizon
        domain, tnow = server.config.domain, server.tnow
        expected = {}
        for qt in range(tnow, tnow + horizon + 1):
            expected[qt] = sum(
                1
                for m in server.table.motions()
                if m.t_ref <= qt <= m.t_ref + horizon
                and domain.contains_point(*m.position_at(qt))
            )
            assert server.histogram.total_at(qt) == expected[qt]
        assert len(set(expected.values())) > 1 and max(expected.values()) < len(server.table)
        assert server.audit() == []
        qt = tnow + 2
        slot = server.histogram.counts_at(qt)
        saved = slot.copy()
        slot[:] = 0
        try:
            assert server.audit(raise_on_violation=False) == [
                f"histogram total 0 at t={qt} != {expected[qt]} live in-domain objects"
            ]
        finally:
            slot[:] = saved

    def test_chunked_recount_equals_the_one_pass_recount(self, reference, monkeypatch):
        """Passes of 7 rows over a table of more than one pass (the last one
        ragged) count what one (n, H + 1) pass counts, and the audit's
        message does not change with the chunking."""
        server, horizon = reference, reference.config.horizon
        domain, tnow = server.config.domain, server.tnow
        motions = server.table.columns()
        qts = np.arange(tnow, tnow + horizon + 1)
        one_pass = (
            motions.covering(qts, horizon) & domain.contains_points(*motions.trajectory(qts))
        ).sum(axis=0)
        monkeypatch.setattr(updates, "PASS_JOB_SLOTS", 7 * len(qts))
        assert len(motions) > 2 * 7 and len(motions) % 7
        chunked = recovery.live_in_domain_counts(motions, qts, horizon, domain)
        assert np.array_equal(chunked, one_pass)
        assert server.audit() == []
        qt = tnow + 3
        slot = server.histogram.counts_at(qt)
        saved = slot.copy()
        slot[:] = 0
        try:
            assert server.audit(raise_on_violation=False) == [
                f"histogram total 0 at t={qt} != {one_pass[3]} live in-domain objects"
            ]
        finally:
            slot[:] = saved

    def test_recover_runs_the_audit_by_default(self, tmp_path):
        rc = durable_config(tmp_path)
        server = PDRServer(small_system_config(), expected_objects=N_OBJECTS, reliability=rc)
        # End within W ticks of the tick-25 checkpoint: replay rebuilds every
        # slot that enters the window after it from the table, so only the
        # checkpoint's slots from the final clock on reach the live window.
        end = OPS.index(("advance", CKPT_INTERVAL + 3))
        for op in OPS[:end + 4]:
            apply_op(server, op)
        server.close()
        # cheapest way to produce an inconsistent recovered state:
        # corrupt the checkpointed histogram by flipping one count
        ckpts = sorted(
            n for n in os.listdir(rc.state_dir)
            if n.startswith("ckpt-") and n.endswith(".npz")
        )
        if not ckpts:
            pytest.skip("workload prefix produced no checkpoint")
        path = os.path.join(rc.state_dir, ckpts[-1])
        with np.load(path, allow_pickle=False) as data:
            payload = {k: data[k] for k in data.files}
        # corrupt the ring slot holding the *final* clock's timestamp:
        # every older slot is retired during replay, so this one carries
        # checkpoint corruption through to the live window.
        # The image keeps the ring's nonzero cells (flat indices into the
        # slot-major ring), so +7 on the slot's first cell is an increment
        # if that cell is listed and a new sorted entry if it is not.
        m = small_system_config().histogram_cells
        slots = payload["hist_slot_time"].shape[0]
        cell = (server.tnow % slots) * m * m
        cells, counts = payload["hist_cells"], payload["hist_counts"].copy()
        at = int(np.searchsorted(cells, cell))
        if at < cells.size and cells[at] == cell:
            counts[at] += 7
        else:
            cells = np.insert(cells, at, cell)
            counts = np.insert(counts, at, np.int32(7))
        payload["hist_cells"], payload["hist_counts"] = cells, counts
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
        # semantic corruption, not bit rot: refresh the manifest digest so
        # the image still checksum-verifies (otherwise recovery would treat
        # it as damaged and fall back) and only the audit can catch it
        from repro.reliability.statedir import file_crc

        manifest_path = os.path.join(rc.state_dir, "MANIFEST.json")
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest.setdefault("digests", {})[os.path.basename(path)] = file_crc(path)
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        with pytest.raises(AuditError):
            PDRServer.recover(rc.state_dir)
        # ... but an explicit opt-out lets an operator inspect the state
        damaged = PDRServer.recover(rc.state_dir, audit=False)
        assert damaged.audit(raise_on_violation=False) != []
        damaged.close()


class TestStateDirLayout:
    def test_manifest_and_sidecars_agree(self, tmp_path):
        rc = durable_config(tmp_path)
        server = PDRServer(small_system_config(), expected_objects=N_OBJECTS, reliability=rc)
        for op in OPS[:150]:
            apply_op(server, op)
        server.close()
        with open(os.path.join(rc.state_dir, "MANIFEST.json")) as fh:
            seq = json.load(fh)["seq"]
        with open(os.path.join(rc.state_dir, f"ckpt-{seq:08d}.json")) as fh:
            sidecar = json.load(fh)
        assert sidecar["seq"] == seq
        assert 0 < sidecar["lsn"] <= 150
        assert os.path.exists(os.path.join(rc.state_dir, f"ckpt-{seq:08d}.npz"))

    def test_old_checkpoints_and_wal_segments_pruned(self, tmp_path):
        rc = durable_config(tmp_path)
        server = PDRServer(small_system_config(), expected_objects=N_OBJECTS, reliability=rc)
        for op in OPS:
            apply_op(server, op)
        server.close()
        names = os.listdir(rc.state_dir)
        ckpt_seqs = sorted(
            int(n[5:13]) for n in names if n.startswith("ckpt-") and n.endswith(".npz")
        )
        wal_seqs = sorted(int(n[4:12]) for n in names if n.startswith("wal-"))
        assert len(ckpt_seqs) == recovery.KEEP_CHECKPOINTS == 2
        assert min(wal_seqs) >= min(ckpt_seqs)


class TestRecordsFromLsn:
    """The public replay cursor the replication layer catches up with."""

    def _oldest_kept_lsn(self, state_dir: str) -> int:
        seqs = sorted(
            int(n[5:13]) for n in os.listdir(state_dir)
            if n.startswith("ckpt-") and n.endswith(".json")
        )
        with open(os.path.join(state_dir, f"ckpt-{seqs[0]:08d}.json")) as fh:
            return int(json.load(fh)["lsn"])

    def test_tail_replay_across_segments_spanning_a_prune(self, tmp_path):
        from repro.reliability.recovery import records_from_lsn

        rc = durable_config(tmp_path)
        server = PDRServer(small_system_config(), expected_objects=N_OBJECTS, reliability=rc)
        for op in OPS:
            apply_op(server, op)
        end = server.wal_lsn
        server.close()
        # the full run checkpointed ~8 times but keeps 2: the cursor reaches
        # exactly back to the oldest kept checkpoint and no further
        oldest = self._oldest_kept_lsn(rc.state_dir)
        assert 0 < oldest < end
        records = list(records_from_lsn(rc.state_dir, oldest))
        assert [r["lsn"] for r in records] == list(range(oldest + 1, end + 1))
        # each record is the op that produced that LSN (ops are 1:1)
        for r in (records[0], records[-1]):
            assert r["op"] in ("report", "retire", "advance")
            assert r["op"] == ("advance" if OPS[r["lsn"] - 1][0] == "advance"
                               else OPS[r["lsn"] - 1][0])
        # a mid-tail cursor yields exactly the remainder, across segments
        mid = (oldest + end) // 2
        tail = list(records_from_lsn(rc.state_dir, mid))
        assert tail == records[mid - oldest:]
        # a caught-up cursor yields nothing (and does not raise)
        assert list(records_from_lsn(rc.state_dir, end)) == []

    def test_cursor_behind_the_pruned_horizon_raises(self, tmp_path):
        from repro.reliability.recovery import records_from_lsn

        rc = durable_config(tmp_path)
        server = PDRServer(small_system_config(), expected_objects=N_OBJECTS, reliability=rc)
        for op in OPS:
            apply_op(server, op)
        server.close()
        with pytest.raises(RecoveryError, match="pruned|cannot replay"):
            list(records_from_lsn(rc.state_dir, 0))
        with pytest.raises(RecoveryError):
            list(records_from_lsn(rc.state_dir, -1))


class TestKeepCheckpoints:
    def test_recovery_from_oldest_kept_checkpoint_after_cycles(
        self, tmp_path, reference, monkeypatch
    ):
        monkeypatch.setattr(recovery, "KEEP_CHECKPOINTS", 3)
        rc = durable_config(tmp_path)
        server = PDRServer(small_system_config(), expected_objects=N_OBJECTS, reliability=rc)
        for op in OPS:
            apply_op(server, op)
        server.close()
        names = os.listdir(rc.state_dir)
        ckpt_seqs = sorted(
            int(n[5:13]) for n in names if n.startswith("ckpt-") and n.endswith(".npz")
        )
        wal_seqs = sorted(int(n[4:12]) for n in names if n.startswith("wal-"))
        assert len(ckpt_seqs) == 3  # several cycles ran; exactly 3 kept
        assert min(wal_seqs) >= min(ckpt_seqs)  # WAL reaches the oldest kept
        # wreck every checkpoint newer than the oldest kept: recovery must
        # fall back to the oldest *kept* image and replay the rest of the WAL
        for seq in ckpt_seqs[1:]:
            with open(os.path.join(rc.state_dir, f"ckpt-{seq:08d}.npz"), "wb") as fh:
                fh.write(b"not a checkpoint")
        recovered = PDRServer.recover(rc.state_dir)
        assert recovered.wal_lsn == len(OPS)
        assert_states_match(recovered, reference)
        recovered.close()
