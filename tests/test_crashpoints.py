"""Crash rules and the state-dir lockfile.

The crash-rule contract: an unset ``REPRO_CRASHPOINT`` arms nothing (a
server without an injector makes no fault-site hit at all); set, it
builds one hard crash rule that dies at exactly the configured hit of
exactly the configured site — after landing the torn payload prefix a
mid-write power cut would have left.  Tests observe the kill in-process
by swapping :func:`~repro.reliability.faults.hard_kill` for a callable
that raises instead of SIGKILLing the test runner; the real-SIGKILL path
is covered by the supervisor and process-plane tests, which spawn real
children.

The lockfile contract: one *process* owns a state dir at a time
(``fcntl.flock`` — the kernel releases it when the holder dies, so
there are no stale locks), while one process may open the same dir many
times (crash-*simulation* tests recover a dir their injured manager
still holds open).
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from tests.conftest import small_system_config
from repro import PDRServer
from repro.core.errors import InvalidParameterError, StateDirLockedError, WALWriteError
from repro.reliability import faults as faults_module
from repro.reliability.faults import (
    ENV_AFTER,
    ENV_SITE,
    ENV_TORN,
    FaultInjector,
    MonotonicClock,
)
from repro.reliability.integrity import verify_state_dir
from repro.reliability.lockfile import (
    LOCK_FILENAME,
    acquire_state_dir_lock,
)
from repro.reliability.recovery import UpdateLog
from repro.reliability.statedir import frame_record
from repro.reliability.validation import ReliabilityConfig

SRC_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


class _Killed(Exception):
    """Stand-in for SIGKILL so the test process survives the site."""


def _raise_killed() -> None:
    raise _Killed()


@pytest.fixture
def armed(monkeypatch):
    """``FaultInjector.from_env`` over a given environment, its SIGKILL
    swapped for :class:`_Killed`."""
    monkeypatch.setattr(faults_module, "hard_kill", _raise_killed)
    return FaultInjector.from_env


# ----------------------------------------------------------------------
# the env-armed crash rule
# ----------------------------------------------------------------------

def test_disarmed_crashpoint_is_a_noop(tmp_path):
    """No site in the environment: no injector, so the server runs with
    ``faults=None`` and its durability sites cost one ``is None`` test."""
    assert FaultInjector.from_env({}) is None
    assert FaultInjector.from_env({ENV_SITE: "", ENV_AFTER: "3"}) is None
    server = PDRServer(
        small_system_config(),
        expected_objects=8,
        reliability=ReliabilityConfig(
            state_dir=str(tmp_path / "state"), checkpoint_interval=1,
            faults=FaultInjector.from_env({}),
        ),
    )
    try:
        assert server.faults is None and server._manager.faults is None
        for t in range(1, 4):
            server.report(t, 10.0 + t, 10.0, 0.1, 0.1)
            server.advance_to(t)  # every checkpoint site on the way
        assert server.wal_lsn == 6
    finally:
        server.close()


def test_armed_site_fires_after_hit_budget_and_other_sites_never(armed):
    faults = armed({ENV_SITE: "wal.append", ENV_AFTER: "2"})
    assert isinstance(faults.clock, MonotonicClock)  # a live child's clock
    faults.hit("wal_fsync")  # different site: untouched
    faults.hit("wal.append")  # hit 1: skipped
    faults.hit("wal.append")  # hit 2: skipped
    with pytest.raises(_Killed):
        faults.hit("wal.append")  # hit 3: dies
    faults.hit("wal.append")  # a rule fires once
    assert faults.hits("wal.append") == 4


def test_torn_write_lands_payload_prefix_before_dying(armed, tmp_path):
    """A torn crash at ``wal_write`` lands the first fraction of the
    framed payload, flushed, and then dies — the one torn-write path an
    injected short write takes too."""
    path = str(tmp_path / "wal.jsonl")
    log = UpdateLog(path, fsync=False, faults=armed({ENV_SITE: "wal_write", ENV_TORN: "0.5"}))
    record = {"op": "advance", "t": 1, "lsn": 1}
    with pytest.raises(_Killed):
        log.append([dict(record)])
    whole = frame_record(record)
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == whole[: len(whole) // 2]


def test_torn_fraction_is_validated():
    faults = FaultInjector()
    with pytest.raises(InvalidParameterError):
        faults.inject_crash("wal_write", torn=1.0)
    with pytest.raises(InvalidParameterError):
        faults.inject_crash("wal_write", torn=-0.1)
    with pytest.raises(InvalidParameterError):  # only a WAL write tears
        faults.inject_crash("wal_fsync", torn=0.5)


def test_arm_from_env_parses_and_rejects_garbage(armed):
    faults = armed({ENV_SITE: "checkpoint.manifest", ENV_AFTER: "3", ENV_TORN: ""})
    for _ in range(3):
        faults.hit("checkpoint.manifest")
    with pytest.raises(_Killed):
        faults.hit("checkpoint.manifest")
    # a malformed value is a hard error, never a rule that cannot fire
    with pytest.raises(ValueError):
        armed({ENV_SITE: "wal.append", ENV_AFTER: "soon"})
    with pytest.raises(ValueError):
        armed({ENV_SITE: "wal_write", ENV_TORN: "half"})
    with pytest.raises(ValueError):
        armed({ENV_SITE: "wal_write", ENV_TORN: "1.5"})
    with pytest.raises(ValueError):
        armed({ENV_SITE: "wal.append", ENV_TORN: "0.5"})
    with pytest.raises(ValueError):  # a typo would never fire
        armed({ENV_SITE: "wal.apend"})


def test_wal_append_site_is_wired_into_the_real_append_path(armed, tmp_path):
    server = PDRServer(
        small_system_config(),
        expected_objects=8,
        reliability=ReliabilityConfig(
            state_dir=str(tmp_path / "state"),
            faults=armed({ENV_SITE: "wal.append"}),
        ),
    )
    try:
        with pytest.raises(_Killed):
            server.report(0, 10.0, 10.0, 0.1, 0.1)
        assert server.wal_lsn == 0  # died before the record was framed
    finally:
        server.close()


def test_wal_reopen_site_is_wired_into_the_real_reopen_path(tmp_path):
    """A kill mid-reopen of a poisoned WAL (the segment not yet cut back
    to its acked prefix, the fresh one not yet opened) loses nothing."""
    state_dir = str(tmp_path / "state")
    faults = FaultInjector()
    server = PDRServer(
        small_system_config(),
        expected_objects=8,
        reliability=ReliabilityConfig(state_dir=state_dir, faults=faults),
    )
    for oid in range(4):
        server.report(oid, 10.0 + oid, 10.0, 0.1, 0.1)
    acked = server.wal_lsn
    faults.inject_eio("wal_write")
    with pytest.raises(WALWriteError):
        server.report(5, 20.0, 20.0, 0.1, 0.1)
    assert server._manager.wal_poisoned
    faults.inject_crash("wal.reopen", hard=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(faults_module, "hard_kill", _raise_killed)
        with pytest.raises(_Killed):
            server._manager.reopen_wal()
    recovered = PDRServer.recover(state_dir)
    try:
        assert recovered.wal_lsn >= acked > 0
    finally:
        recovered.close()
    assert verify_state_dir(state_dir).clean


# ----------------------------------------------------------------------
# state-dir lockfile
# ----------------------------------------------------------------------

def test_lock_is_reentrant_within_a_process(tmp_path):
    state_dir = str(tmp_path / "state")
    os.makedirs(state_dir)
    first = acquire_state_dir_lock(state_dir)
    second = acquire_state_dir_lock(state_dir)  # same process: legal
    first.release()
    # still held through the second handle; the LOCK file itself is
    # never unlinked (unlink would race a fresh acquirer's open)
    assert os.path.exists(os.path.join(state_dir, LOCK_FILENAME))
    second.release()
    assert os.path.exists(os.path.join(state_dir, LOCK_FILENAME))


_CONTENDER = """
import sys
from repro.core.errors import StateDirLockedError
from repro.reliability.lockfile import acquire_state_dir_lock
try:
    lock = acquire_state_dir_lock(sys.argv[1])
except StateDirLockedError as exc:
    print(f"holder={exc.holder.get('pid')}")
    sys.exit(42)
lock.release()
print("acquired")
"""


def _contend(state_dir: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", _CONTENDER, state_dir],
        capture_output=True, text=True, timeout=60, env=env,
    )


def test_lock_refuses_a_second_process_and_names_the_holder(tmp_path):
    state_dir = str(tmp_path / "state")
    os.makedirs(state_dir)
    lock = acquire_state_dir_lock(state_dir)
    try:
        result = _contend(state_dir)
        assert result.returncode == 42, result.stderr
        assert f"holder={os.getpid()}" in result.stdout
    finally:
        lock.release()
    # the kernel released nothing early: only our release frees it
    result = _contend(state_dir)
    assert result.returncode == 0, result.stderr
    assert "acquired" in result.stdout


def test_serve_refuses_a_locked_state_dir_with_exit_11(tmp_path):
    state_dir = str(tmp_path / "state")
    os.makedirs(state_dir)
    lock = acquire_state_dir_lock(state_dir)
    try:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "serve",
             "--state-dir", state_dir, "--port", "0",
             "--objects", "8", "--replicas", "0"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 11, (result.stdout, result.stderr)
        assert "locked" in result.stderr.lower()
    finally:
        lock.release()
