"""State integrity: checksummed WAL framing, scrubbing, anti-entropy repair.

The acceptance scenario of the integrity work, in miniature: flip one
byte of a WAL payload by hand and ``repro verify`` must exit non-zero
naming the damaged segment; quarantine-and-repair from a caught-up
replica must then restore bit-exact state, while a *torn tail* keeps
being truncated (never quarantined) and an unframed line is never
accepted as a record.  Also covered here: the ``*.tmp``-hardening of checkpoint
recovery and the fault injector's counter-reset semantics the chaos
scheduler depends on.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from tests.conftest import small_system_config
from tests.test_recovery import (
    N_OBJECTS,
    OPS,
    apply_op,
    assert_states_match,
    durable_config,
    reference,  # noqa: F401  (module-scoped fixture re-used here)
)
from tests.test_replication import apply_group_op, make_group
from repro import PDRServer, cli
from repro.core.errors import (
    CorruptionError,
    IntegrityError,
    RepairError,
    TransientIOError,
)
from repro.reliability import FaultInjector
from repro.reliability.integrity import (
    QUARANTINE_DIR,
    file_crc,
    flip_byte,
    frame_record,
    parse_wal_line,
    repair_state_dir,
    scrub_state_dir,
    verify_state_dir,
)


def run_workload(tmp_path, n_ops=150, interval=25):
    """A durable server after a deterministic workload prefix."""
    rc = durable_config(tmp_path, interval=interval)
    server = PDRServer(small_system_config(), expected_objects=N_OBJECTS, reliability=rc)
    for op in OPS[:n_ops]:
        apply_op(server, op)
    return server, rc.state_dir


def wal_segments(state_dir):
    return sorted(
        n for n in os.listdir(state_dir)
        if n.startswith("wal-") and n.endswith(".jsonl")
    )


class TestFraming:
    def test_roundtrip(self):
        record = {"op": "report", "t": 3, "oid": 7, "x": 1.5, "y": 2.0,
                  "vx": -0.25, "vy": 0.5, "lsn": 12}
        line = frame_record(record)
        assert line.startswith("12:")
        assert parse_wal_line(line) == record

    def test_unframed_json_line_is_damage(self):
        """A bare JSON object carries no checksum: it is not a record."""
        record = {"op": "advance", "t": 9, "lsn": 4}
        with pytest.raises(ValueError):
            parse_wal_line(json.dumps(record) + "\n")

    @pytest.mark.parametrize("position", [0, 5, 20, -2])
    def test_any_single_byte_flip_is_detected(self, position):
        line = frame_record({"op": "advance", "t": 1, "lsn": 1})
        raw = bytearray(line.encode())
        raw[position] ^= 0x08
        damaged = raw.decode(errors="replace")
        with pytest.raises(ValueError):
            parse_wal_line(damaged)

    def test_header_payload_lsn_disagreement_is_damage(self):
        line = frame_record({"op": "advance", "t": 1, "lsn": 7})
        # forge the header (with a recomputed checksum) to claim lsn 8
        payload = line.rstrip("\n").split(":", 2)[2]
        from repro.reliability.integrity import record_crc

        forged = f"8:{record_crc(8, payload):08x}:{payload}\n"
        with pytest.raises(ValueError):
            parse_wal_line(forged)

    def test_flip_byte_refuses_no_op(self, tmp_path):
        path = os.path.join(str(tmp_path), "f")
        with open(path, "wb") as fh:
            fh.write(b"abc")
        with pytest.raises(IntegrityError):
            flip_byte(path, 0, xor=0)
        with open(path, "wb"):
            pass
        with pytest.raises(IntegrityError):
            flip_byte(path, 0)


class TestLegacyMigration:
    def test_digestless_manifest_recovers_and_verifies(self, tmp_path, reference):
        """A pre-digest directory (manifest without a digest map) verifies
        by deep-loading its checkpoints and replays unchanged."""
        server, state_dir = run_workload(tmp_path, n_ops=150)
        server.close()
        manifest = os.path.join(state_dir, "MANIFEST.json")
        with open(manifest, encoding="utf-8") as fh:
            seq = json.load(fh)["seq"]
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump({"seq": seq}, fh)

        report = verify_state_dir(state_dir)
        assert report.clean

        recovered = PDRServer.recover(state_dir)
        for op in OPS[150:]:
            apply_op(recovered, op)
        assert_states_match(recovered, reference)
        recovered.close()


class TestVerify:
    def test_clean_directory(self, tmp_path):
        server, state_dir = run_workload(tmp_path)
        server.close()
        report = verify_state_dir(state_dir)
        assert report.clean
        assert report.summary().endswith("verify: OK")

    def test_flip_in_wal_payload_names_the_segment(self, tmp_path):
        server, state_dir = run_workload(tmp_path)
        server.close()
        victim = wal_segments(state_dir)[0]
        path = os.path.join(state_dir, victim)
        flip_byte(path, os.path.getsize(path) // 2, xor=0x10)
        report = verify_state_dir(state_dir)
        assert not report.clean
        damaged = report.damaged()
        assert [f.name for f in damaged] == [victim]
        assert victim in report.summary()
        assert report.summary().endswith("verify: FAILED")

    def test_torn_tail_of_newest_segment_is_not_corrupt(self, tmp_path):
        server, state_dir = run_workload(tmp_path)
        server.close()
        tail = wal_segments(state_dir)[-1]
        with open(os.path.join(state_dir, tail), "ab") as fh:
            fh.write(b'{"op": "rep')  # interrupted append
        report = verify_state_dir(state_dir)
        [damaged] = report.damaged()
        assert damaged.name == tail
        assert damaged.state == "torn-tail"

    @pytest.mark.parametrize("where, state", [("tail", "torn-tail"), ("middle", "corrupt")])
    def test_unframed_json_line_is_torn_tail_or_corruption(self, tmp_path, where, state):
        """A complete, parseable JSON line with no frame gets no CRC pass:
        as the newest segment's last line it is a torn tail, anywhere else
        it is corruption — and recovery refuses it instead of replaying it."""
        server, state_dir = run_workload(tmp_path)
        server.close()
        tail = wal_segments(state_dir)[-1]
        path = os.path.join(state_dir, tail)
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        last_lsn = parse_wal_line(lines[-1])["lsn"]
        forged = json.dumps({"op": "advance", "t": 10_000, "lsn": last_lsn + 1}) + "\n"
        if where == "tail":
            lines.append(forged)
        else:
            lines.insert(len(lines) // 2, forged)
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        [damaged] = verify_state_dir(state_dir).damaged()
        assert (damaged.name, damaged.state) == (tail, state)
        if where == "tail":
            recovered = PDRServer.recover(state_dir)
            assert recovered.wal_lsn == last_lsn  # the forged advance never ran
            assert recovered.tnow < 10_000
            recovered.close()
        else:
            with pytest.raises(CorruptionError):
                PDRServer.recover(state_dir)

    def test_flipped_checkpoint_fails_its_manifest_digest(self, tmp_path):
        server, state_dir = run_workload(tmp_path)
        server.close()
        ckpt = sorted(n for n in os.listdir(state_dir)
                      if n.startswith("ckpt-") and n.endswith(".npz"))[-1]
        flip_byte(os.path.join(state_dir, ckpt), 100, xor=0x01)
        report = verify_state_dir(state_dir)
        [damaged] = report.damaged()
        assert damaged.name == ckpt
        assert "digest" in damaged.detail

    def test_recovery_skips_digest_failing_checkpoint(self, tmp_path, reference):
        """Bit rot in the newest image falls back to the previous one."""
        server, state_dir = run_workload(tmp_path, n_ops=300)
        server.close()
        ckpts = sorted(n for n in os.listdir(state_dir)
                       if n.startswith("ckpt-") and n.endswith(".npz"))
        assert len(ckpts) >= 2, "workload must span two checkpoints"
        flip_byte(os.path.join(state_dir, ckpts[-1]), 64, xor=0x04)
        recovered = PDRServer.recover(state_dir)
        for op in OPS[300:]:
            apply_op(recovered, op)
        assert_states_match(recovered, reference)
        recovered.close()


class TestScrub:
    def test_stray_tmp_files_are_ignored_then_deleted(self, tmp_path, reference):
        """Satellite: zero-byte / half-written ``*.tmp`` leftovers of a
        crash-during-rename must not break recovery, and the scrubber
        removes them."""
        server, state_dir = run_workload(tmp_path, n_ops=150)
        server.close()
        with open(os.path.join(state_dir, "ckpt-00000099.npz.tmp"), "wb"):
            pass  # zero-byte image mid-rename
        with open(os.path.join(state_dir, "MANIFEST.json.tmp"), "w") as fh:
            fh.write('{"seq":')  # torn manifest rewrite
        with open(os.path.join(state_dir, "wal-00000099.jsonl.tmp"), "wb") as fh:
            fh.write(b"\x00\xff garbage")

        report = verify_state_dir(state_dir)
        assert report.clean  # stray tmps are noted, not damage
        assert len(report.stray_tmp()) == 3

        recovered = PDRServer.recover(state_dir)  # recovery never reads them
        for op in OPS[150:]:
            apply_op(recovered, op)
        assert_states_match(recovered, reference)
        recovered.close()

        # the resumed run's checkpoint overwrote MANIFEST.json.tmp with its
        # own atomic rewrite (tmp + rename) — put the stray back for scrub
        with open(os.path.join(state_dir, "MANIFEST.json.tmp"), "w") as fh:
            fh.write('{"seq":')
        report = scrub_state_dir(state_dir)
        assert report.clean
        assert not report.stray_tmp()
        assert sum("stray temp" in a for a in report.actions) == 3

    def test_torn_tail_is_truncated_not_quarantined(self, tmp_path):
        server, state_dir = run_workload(tmp_path)
        server.close()
        tail = os.path.join(state_dir, wal_segments(state_dir)[-1])
        intact = os.path.getsize(tail)
        with open(tail, "ab") as fh:
            fh.write(b"12345:deadbeef:{tor")
        report = scrub_state_dir(state_dir)
        assert report.clean
        assert os.path.getsize(tail) == intact
        assert not os.path.isdir(os.path.join(state_dir, QUARANTINE_DIR))

    def test_corrupt_segment_is_quarantined_with_evidence(self, tmp_path):
        server, state_dir = run_workload(tmp_path)
        server.close()
        victim = wal_segments(state_dir)[0]
        path = os.path.join(state_dir, victim)
        pre_crc = file_crc(path)
        flip_byte(path, os.path.getsize(path) // 2, xor=0x20)
        post_crc = file_crc(path)
        scrub_state_dir(state_dir)
        assert not os.path.exists(path)
        evidence = os.path.join(state_dir, QUARANTINE_DIR, victim)
        assert file_crc(evidence) == post_crc  # moved, not altered
        assert pre_crc != post_crc

    def test_corrupt_checkpoint_takes_its_sidecar_along(self, tmp_path):
        server, state_dir = run_workload(tmp_path)
        server.close()
        ckpt = sorted(n for n in os.listdir(state_dir)
                      if n.startswith("ckpt-") and n.endswith(".npz"))[-1]
        sidecar = ckpt[:-4] + ".json"
        flip_byte(os.path.join(state_dir, ckpt), 10, xor=0x01)
        scrub_state_dir(state_dir)
        qdir = os.path.join(state_dir, QUARANTINE_DIR)
        assert os.path.exists(os.path.join(qdir, ckpt))
        assert os.path.exists(os.path.join(qdir, sidecar))


class TestMidSegmentCorruption:
    """Satellite: non-tail corruption must quarantine + repair, never
    truncate — and never strand the server."""

    def flip_first_segment(self, state_dir):
        victim = wal_segments(state_dir)[0]
        path = os.path.join(state_dir, victim)
        flip_byte(path, os.path.getsize(path) // 3, xor=0x40)
        return victim

    def flip_active_segment(self, state_dir):
        """Corrupt the *first* record of the newest (active) segment:
        mid-segment damage whose records only a replica still holds."""
        victim = [
            n for n in wal_segments(state_dir)
            if os.path.getsize(os.path.join(state_dir, n)) > 0
        ][-1]
        flip_byte(os.path.join(state_dir, victim), 5, xor=0x40)
        return victim

    def test_recover_raises_corruption_error_naming_the_segment(self, tmp_path):
        server, state_dir = run_workload(tmp_path, n_ops=60, interval=0)
        server.close()
        victim = self.flip_first_segment(state_dir)
        with pytest.raises(CorruptionError) as exc_info:
            PDRServer.recover(state_dir)
        assert victim in str(exc_info.value)
        # the file was NOT silently truncated to the pre-damage prefix
        report = verify_state_dir(state_dir)
        assert [f.name for f in report.damaged()] == [victim]

    def test_anti_entropy_repairs_from_replica_history(self, tmp_path, reference):
        group, _ = make_group(tmp_path, n_replicas=2)
        for op in OPS[:300]:
            apply_group_op(group, op)
        state_dir = group.state_dir
        victim = self.flip_active_segment(state_dir)
        report = group.anti_entropy()
        assert report.clean
        assert any("re-fetched" in a or "installed" in a for a in report.actions)
        # the damaged original is preserved for forensics
        assert os.path.exists(os.path.join(state_dir, QUARANTINE_DIR, victim))
        # the group keeps serving writes after the repair ...
        for op in OPS[300:]:
            apply_group_op(group, op)
        group.catch_up_replicas()
        primary = group.primary
        # ... and a cold recovery from the repaired directory is bit-exact
        group.close()
        recovered = PDRServer.recover(state_dir)
        assert np.array_equal(
            recovered.pa.state_arrays()["coeffs"],
            primary.pa.state_arrays()["coeffs"],
        )
        assert np.array_equal(
            recovered.histogram.state_arrays()["counts"],
            primary.histogram.state_arrays()["counts"],
        )
        assert_states_match(recovered, reference)
        recovered.close()

    def test_repair_without_source_fails_loudly(self, tmp_path):
        server, state_dir = run_workload(tmp_path, n_ops=60, interval=0)
        acked = server.wal_lsn
        server.close()
        self.flip_first_segment(state_dir)
        with pytest.raises(RepairError):
            repair_state_dir(state_dir, source=None, target_lsn=acked)


class TestResetCounters:
    """Satellite: ``clear()`` keeps hit counters; ``reset_counters()``
    zeroes them so re-armed after=N rules count from scratch."""

    def test_clear_keeps_counters(self):
        faults = FaultInjector()
        for _ in range(5):
            faults.hit("integrity.flip")
        faults.clear()
        assert faults.hits("integrity.flip") == 5

    def test_reset_counters_zeroes_one_or_all(self):
        faults = FaultInjector()
        faults.hit("a")
        faults.hit("b")
        faults.reset_counters("a")
        assert faults.hits("a") == 0
        assert faults.hits("b") == 1
        faults.reset_counters()
        assert faults.hits("b") == 0

    def test_rearmed_after_rule_fires_at_the_right_hit(self):
        faults = FaultInjector()
        faults.inject_error("site", after=2, times=1)
        faults.hit("site")
        faults.hit("site")
        with pytest.raises(TransientIOError):
            faults.hit("site")
        faults.clear("site")
        # without reset, a re-armed after=2 rule would fire immediately
        # (stale hits 1..3 already count); reset gives a fresh episode
        faults.reset_counters("site")
        faults.inject_error("site", after=2, times=1)
        faults.hit("site")
        faults.hit("site")
        with pytest.raises(TransientIOError):
            faults.hit("site")


class TestVerifyCLI:
    """The acceptance scenario: hand-flip one WAL payload byte, watch
    ``repro verify`` fail naming the segment, repair from a replica,
    watch it pass."""

    def test_verify_exit_codes_and_repair_roundtrip(self, tmp_path, capsys):
        group, _ = make_group(tmp_path, n_replicas=2)
        for op in OPS[:300]:
            apply_group_op(group, op)
        state_dir = group.state_dir
        assert cli.main(["verify", "--state-dir", state_dir]) == 0
        out = capsys.readouterr().out
        assert "verify: OK" in out

        victim = wal_segments(state_dir)[0]
        path = os.path.join(state_dir, victim)
        flip_byte(path, os.path.getsize(path) // 2, xor=0x02)

        assert cli.main(["verify", "--state-dir", state_dir]) == 8
        out = capsys.readouterr().out
        assert victim in out
        assert "verify: FAILED" in out

        report = group.anti_entropy()
        assert report.clean
        assert cli.main(["verify", "--state-dir", state_dir]) == 0
        group.close()

    def test_verify_json_and_scrub_flags(self, tmp_path, capsys):
        server, state_dir = run_workload(tmp_path, n_ops=60)
        server.close()
        with open(os.path.join(state_dir, "MANIFEST.json.tmp"), "w") as fh:
            fh.write("{")
        assert cli.main(["verify", "--state-dir", state_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert any(f["state"] == "stray-tmp" for f in payload["files"])
        assert cli.main(["verify", "--state-dir", state_dir, "--scrub"]) == 0
        assert "deleted stray temp" in capsys.readouterr().out
        assert not os.path.exists(os.path.join(state_dir, "MANIFEST.json.tmp"))

    def test_verify_missing_directory_is_an_integrity_error(self, tmp_path, capsys):
        missing = os.path.join(str(tmp_path), "nope")
        assert cli.main(["verify", "--state-dir", missing]) == 8
        assert "IntegrityError" in capsys.readouterr().err
