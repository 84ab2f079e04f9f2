"""Seeded chaos: randomized fault schedules with invariant oracles.

The acceptance scenario of the chaos work: a fixed-seed schedule of 200+
events — with injected bit-flips and crashes on both sides of the
replication group — must end with every invariant oracle green and a
state directory that ``repro verify`` accepts.  Determinism (same seed,
same schedule) and the ddmin shrinker are covered separately so a CI
failure always comes with a replayable minimal reproducer.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pytest

from tests.conftest import small_system_config
from repro import PDRServer, cli
from repro.reliability import chaos, resources
from repro.reliability.chaos import (
    DISRUPTIONS,
    ChaosConfig,
    ChaosScheduler,
    ddmin,
    durable_verdict,
)
from repro.reliability.statedir import (
    checkpoint_seqs,
    file_crc,
    image_path,
    manifest_path,
    wal_path,
    wal_seqs,
)
from repro.reliability.validation import ReliabilityConfig


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path / "chaos")


class TestSchedule:
    def test_same_seed_same_schedule(self, workdir):
        a = ChaosScheduler(ChaosConfig(seed=123), workdir).build_schedule()
        b = ChaosScheduler(ChaosConfig(seed=123), workdir).build_schedule()
        assert a == b

    def test_different_seeds_differ(self, workdir):
        a = ChaosScheduler(ChaosConfig(seed=1), workdir).build_schedule()
        b = ChaosScheduler(ChaosConfig(seed=2), workdir).build_schedule()
        assert a != b

    def test_minimum_disruptions_are_forced(self, workdir, monkeypatch):
        monkeypatch.setattr(chaos, "MIN_DISRUPTIONS", 6)
        config = ChaosConfig(seed=5, events=30)
        events = ChaosScheduler(config, workdir).build_schedule()
        assert sum(1 for e in events if e[0] in DISRUPTIONS) >= 6

    def test_events_are_json_serialisable(self, workdir):
        events = ChaosScheduler(ChaosConfig(seed=9, events=50), workdir).build_schedule()
        assert json.loads(json.dumps(events)) == [list(e) for e in events]


class TestCampaign:
    def test_fixed_seed_campaign_ends_green(self, workdir):
        """The acceptance run: >= 200 events, >= 3 injected corruptions
        and crashes across primary and replicas, every oracle green, and
        ``repro verify`` exits 0 on the surviving state directory."""
        config = ChaosConfig(seed=42, events=220)
        result = ChaosScheduler(config, workdir).run()
        assert result.ok, result.format_reproducer()
        assert result.events_run == 220
        disruptions = (
            result.stats.get("flips", 0)
            + result.stats.get("failovers", 0)
            + result.stats.get("replica_crashes", 0)
        )
        assert result.stats.get("flips", 0) >= 3
        assert result.stats.get("failovers", 0) >= 1
        assert result.stats.get("replica_crashes", 0) >= 1
        assert disruptions >= chaos.MIN_DISRUPTIONS
        assert result.stats.get("oracle_sweeps", 0) > 0
        assert cli.main(["verify", "--state-dir", result.final_state_dir]) == 0

    def test_execute_is_deterministic(self, workdir):
        """Replaying the same schedule gives the same stats — the
        property every shrunk reproducer depends on."""
        sched = ChaosScheduler(ChaosConfig(seed=7, events=60), workdir)
        events = sched.build_schedule()
        f1, s1, _ = sched.execute(events)
        f2, s2, _ = sched.execute(events)
        assert (f1 is None) == (f2 is None)
        assert s1 == s2

    def test_flip_counter_resets_between_episodes(self, workdir):
        sched = ChaosScheduler(ChaosConfig(seed=7, events=60), workdir)
        events = sched.build_schedule()
        _, s1, _ = sched.execute(events)
        _, s2, _ = sched.execute(events)
        # a shared injector without reset_counters() would accumulate
        assert s1["flips"] == s2["flips"]


class TestDurableOracles:
    """The oracle list every plane ends with, on hand-damaged copies of
    one directory that acknowledged every write — no child processes."""

    @pytest.fixture(scope="class")
    def acked_dir(self, tmp_path_factory):
        state_dir = str(tmp_path_factory.mktemp("durable") / "state")
        server = PDRServer(
            small_system_config(), expected_objects=12,
            reliability=ReliabilityConfig(state_dir=state_dir,
                                          checkpoint_interval=2),
        )
        with pytest.MonkeyPatch.context() as mp:  # keep every checkpoint
            mp.setattr(resources, "KEEP_CHECKPOINTS", 8)
            for t in range(1, 11):
                for oid in range(12):
                    server.report(oid, 5.0 + 7 * oid, 20.0 + t, 0.5, -0.25)
                server.advance_to(t)  # a checkpoint (and a fresh segment) at even t
        for oid in range(4):  # the newest segment holds acked reports
            server.report(oid, 50.0, 50.0 + oid, 0.0, 0.0)
        acked, tnow = server.wal_lsn, server.tnow
        server.close()
        assert len(wal_seqs(state_dir)) >= 4
        return state_dir, acked, tnow

    @staticmethod
    def _copy(acked_dir, tmp_path):
        state_dir = str(tmp_path / "state")
        shutil.copytree(acked_dir[0], state_dir)
        return state_dir

    def test_the_undamaged_directory_passes_every_oracle(self, acked_dir, tmp_path):
        state_dir = self._copy(acked_dir, tmp_path)
        assert durable_verdict(state_dir, acked_dir[1]) is None

    def test_a_wal_truncated_below_the_acked_lsn_is_acked_write_loss(
            self, acked_dir, tmp_path):
        state_dir = self._copy(acked_dir, tmp_path)
        newest = wal_path(state_dir, wal_seqs(state_dir)[-1])
        with open(newest, "rb") as fh:
            lines = fh.readlines()
        with open(newest, "wb") as fh:  # whole records only: no torn tail
            fh.writelines(lines[:-2])
        verdict = durable_verdict(state_dir, acked_dir[1])
        assert verdict is not None and verdict[0] == "no-acked-write-loss"

    def test_a_deleted_middle_segment_is_a_durable_integrity_gap(
            self, acked_dir, tmp_path):
        state_dir = self._copy(acked_dir, tmp_path)
        seqs = wal_seqs(state_dir)
        os.remove(wal_path(state_dir, seqs[1]))  # the chain jumps from seqs[0]
        verdict = durable_verdict(state_dir, acked_dir[1])
        assert verdict is not None and verdict[0] == "durable-integrity"
        assert "gap" in verdict[1].lower()

    def test_a_semantically_corrupt_checkpoint_fails_the_audit(
            self, acked_dir, tmp_path):
        """+7 on the DH cell of the final clock's ring slot, digest
        refreshed: the image checksum-verifies, only the audit catches it."""
        state_dir = self._copy(acked_dir, tmp_path)
        path = image_path(state_dir, checkpoint_seqs(state_dir)[-1])
        with np.load(path, allow_pickle=False) as data:
            payload = {k: data[k] for k in data.files}
        m = small_system_config().histogram_cells
        cell = (acked_dir[2] % payload["hist_slot_time"].shape[0]) * m * m
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
        with open(manifest_path(state_dir), encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest["digests"][os.path.basename(path)] = file_crc(path)
        with open(manifest_path(state_dir), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        verdict = durable_verdict(state_dir, acked_dir[1])
        assert verdict is not None and verdict[0] == "structural-audit"


class TestDdmin:
    def fails_with_markers(self, events):
        return sum(1 for e in events if e[0] == "marker") >= 2

    def test_shrinks_to_the_minimal_pair(self):
        noise = [("noise", i) for i in range(40)]
        events = noise[:13] + [("marker", 1)] + noise[13:29] + [("marker", 2)] + noise[29:]
        shrunk = ddmin(events, self.fails_with_markers)
        assert shrunk == [("marker", 1), ("marker", 2)]

    def test_respects_the_run_budget(self):
        calls = []

        def fails(events):
            calls.append(1)
            return self.fails_with_markers(events)

        events = [("marker", i) for i in range(64)]
        ddmin(events, fails, max_runs=10)
        assert len(calls) <= 10

    def test_single_event_failures_shrink_to_one(self):
        events = [("noise", i) for i in range(20)] + [("marker", 0)]
        shrunk = ddmin(events, lambda ev: any(e[0] == "marker" for e in ev))
        assert shrunk == [("marker", 0)]


class TestChaosCLI:
    def test_green_run_exits_zero(self, capsys):
        assert cli.main(["chaos", "--seed", "3", "--events", "60"]) == 0
        out = capsys.readouterr().out
        assert "all oracles green" in out
        assert "seed 3" in out

    def test_repro_out_written_only_on_failure(self, tmp_path, capsys):
        out_path = str(tmp_path / "repro.json")
        assert cli.main([
            "chaos", "--seed", "3", "--events", "60", "--repro-out", out_path,
        ]) == 0
        assert not os.path.exists(out_path)
