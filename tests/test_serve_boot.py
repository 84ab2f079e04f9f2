"""`repro serve`'s three boot paths and its integrity gate, in process.

``cli._boot_group`` builds the group `serve` mounts: a primary from a
snapshot, a recovered state directory or a fresh seeded workload, each
mounted from the same flags.  A recovered directory goes through
``cli._boot_verify`` first: safe damage is repaired, corruption refuses
the boot (exit 8) unless ``--force-recover`` accepts the quarantine.
"""

from __future__ import annotations

import os

import pytest

from tests.conftest import populate_clustered, small_system_config
from repro import PDRServer
from repro.cli import EXIT_CODES, _boot_group, build_parser
from repro.core.errors import IntegrityError
from repro.reliability import statedir
from repro.reliability.admission import AdmissionConfig
from repro.reliability.faults import ENV_SITE, FaultInjector, MonotonicClock
from repro.storage.snapshot import save_server
from repro.telemetry import JOURNAL


def _state_dir(tmp_path) -> str:
    """`serve` binds its journal under the state dir before it boots, so
    the directory always exists by then."""
    path = tmp_path / "state"
    path.mkdir()
    return str(path)


def _serve_args(state_dir, *flags):
    return build_parser().parse_args(
        ["serve", "--state-dir", state_dir, "--objects", "16", "--replicas", "0",
         *flags]
    )


def _mark() -> int:
    """The newest journal seq so far: records after it are this test's."""
    return max((r["seq"] for r in JOURNAL.recent()), default=0)


def _journaled(event: str, since: int) -> list:
    return [r for r in JOURNAL.recent() if r["seq"] > since and r["event"] == event]


def test_admission_survives_the_recovered_boot_path(tmp_path):
    state_dir = _state_dir(tmp_path)
    args = _serve_args(state_dir, "--admission-rate", "5")
    group = _boot_group(args, state_dir)
    fresh = group.admission.config
    group.primary.checkpoint()
    group.close()

    group = _boot_group(args, state_dir)  # holds state now: recovered
    try:
        assert group.primary.recovery_generation == 1
        assert group.admission is not None
        assert group.admission.config == fresh == AdmissionConfig(rate=5.0, burst=10.0)
    finally:
        group.close()


@pytest.mark.parametrize("path", ["seeded", "recovered", "snapshot"])
def test_every_boot_path_arms_the_environments_crash_rule(tmp_path, monkeypatch, path):
    """`REPRO_CRASHPOINT` becomes the primary's injector on each boot path,
    on real time (the server's clock is the injector's); unset, the primary
    has no injector."""
    monkeypatch.delenv(ENV_SITE, raising=False)
    state_dir = _state_dir(tmp_path)
    flags = ()
    if path == "recovered":
        group = _boot_group(_serve_args(state_dir), state_dir)
        assert group.primary.faults is None
        group.close()
    elif path == "snapshot":
        server = PDRServer(small_system_config(), expected_objects=8)
        populate_clustered(server, 8, seed=3)
        flags = ("--snapshot", str(tmp_path / "world.npz"))
        save_server(server, flags[1])
    monkeypatch.setenv(ENV_SITE, "wal.reopen")  # armed; no boot reaches it
    group = _boot_group(_serve_args(state_dir, *flags), state_dir)
    try:
        faults = group.primary.faults
        assert isinstance(faults, FaultInjector)
        assert isinstance(faults.clock, MonotonicClock)
        assert group.primary.clock is faults.clock
        assert group.primary._manager.faults is faults
    finally:
        group.close()


@pytest.mark.parametrize("flags,fsync,interval", [
    ((), False, 0),  # what the bench's `serve --snapshot` child runs
    (("--fsync", "--checkpoint-interval", "3"), True, 3),
])
def test_snapshot_boot_path_honours_the_durability_flags(tmp_path, flags, fsync,
                                                         interval):
    server = PDRServer(small_system_config(), expected_objects=40)
    populate_clustered(server, 40, seed=3)
    snapshot = str(tmp_path / "world.npz")
    save_server(server, snapshot)
    state_dir = _state_dir(tmp_path)
    group = _boot_group(_serve_args(state_dir, "--snapshot", snapshot, *flags),
                        state_dir)
    try:
        assert group.primary.reliability.fsync is fsync
        assert group.primary.reliability.checkpoint_interval == interval
        assert group.primary.object_count() == 40
    finally:
        group.close()


@pytest.fixture
def served_dir(tmp_path):
    """A state dir a fresh `serve` left: two checkpoints, writes after each.
    Returns ``(state_dir, acked_lsn)``."""
    state_dir = _state_dir(tmp_path)
    group = _boot_group(_serve_args(state_dir), state_dir)
    for round_ in range(2):
        group.primary.checkpoint()
        for oid in range(4):
            group.report(oid, 100.0 + oid + round_, 200.0, 0.5, -0.5)
    acked = group.acked_lsn
    group.close()
    return state_dir, acked


def _flip_newest_checkpoint(state_dir: str) -> str:
    seq = statedir.checkpoint_seqs(state_dir)[-1]
    path = statedir.image_path(state_dir, seq)
    with open(path, "r+b") as fh:
        fh.seek(os.path.getsize(path) // 2)
        byte = fh.read(1)[0]
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([byte ^ 0x10]))
    return os.path.basename(path)


def test_corrupt_checkpoint_refuses_boot_with_exit_8(served_dir):
    state_dir, _ = served_dir
    victim = _flip_newest_checkpoint(state_dir)
    mark = _mark()
    with pytest.raises(IntegrityError, match=victim) as exc_info:
        _boot_group(_serve_args(state_dir), state_dir)
    exit_code = next(code for cls, code in EXIT_CODES if isinstance(exc_info.value, cls))
    assert exit_code == 8
    (refused,) = _journaled("boot_refused", mark)
    assert victim in refused["artifacts"]
    assert os.path.exists(os.path.join(state_dir, victim))  # nothing moved


def test_force_recover_quarantines_and_recovers_to_the_acked_lsn(served_dir):
    state_dir, acked = served_dir
    victim = _flip_newest_checkpoint(state_dir)
    mark = _mark()
    group = _boot_group(_serve_args(state_dir, "--force-recover"), state_dir)
    try:
        assert group.primary.wal_lsn == acked
        assert group.primary.audit(raise_on_violation=False) == []
    finally:
        group.close()
    quarantined = os.path.join(state_dir, statedir.QUARANTINE_DIR, victim)
    assert os.path.exists(quarantined)
    assert any(victim in r["action"] for r in _journaled("boot_scrub", mark))


def test_torn_wal_tail_is_repaired_without_the_flag(served_dir):
    state_dir, acked = served_dir
    newest = statedir.wal_path(state_dir, statedir.wal_seqs(state_dir)[-1])
    with open(newest, "a", encoding="utf-8") as fh:
        fh.write('{"lsn": 999, "op": "rep')  # a write the crash cut short
    mark = _mark()
    group = _boot_group(_serve_args(state_dir), state_dir)
    try:
        assert group.primary.wal_lsn == acked
    finally:
        group.close()
    (scrub,) = _journaled("boot_scrub", mark)
    assert "torn tail" in scrub["action"]
    assert _journaled("boot_refused", mark) == []
