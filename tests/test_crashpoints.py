"""Crashpoints and the state-dir lockfile.

The crashpoint contract: disarmed it is free, armed it dies at exactly
the configured hit of exactly the configured site — after landing the
torn payload prefix a mid-write power cut would have left.  Tests
observe the kill in-process by arming a ``kill`` callable that raises
instead of SIGKILLing the test runner; the real-SIGKILL path is covered
by the supervisor and kill-matrix tests, which spawn real children.

The lockfile contract: one *process* owns a state dir at a time
(``fcntl.flock`` — the kernel releases it when the holder dies, so
there are no stale locks), while one process may open the same dir many
times (crash-*simulation* tests recover a dir their injured manager
still holds open).
"""

from __future__ import annotations

import io
import os
import subprocess
import sys

import pytest

from tests.conftest import small_system_config
from repro import PDRServer
from repro.core.errors import StateDirLockedError, WALWriteError
from repro.reliability import crashpoints as cp
from repro.reliability.faults import FaultInjector
from repro.reliability.integrity import verify_state_dir
from repro.reliability.lockfile import (
    LOCK_FILENAME,
    acquire_state_dir_lock,
)
from repro.reliability.validation import ReliabilityConfig

SRC_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


class _Killed(Exception):
    """Stand-in for SIGKILL so the test process survives the site."""


def _raise_killed() -> None:
    raise _Killed()


@pytest.fixture(autouse=True)
def _always_disarmed():
    cp.disarm()
    yield
    cp.disarm()


# ----------------------------------------------------------------------
# crashpoint arming semantics
# ----------------------------------------------------------------------

def test_disarmed_crashpoint_is_a_noop():
    for site in cp.CRASH_SITES:
        cp.crashpoint(site)  # must simply return


def test_armed_site_fires_after_hit_budget_and_other_sites_never():
    cp.arm("wal.append", after=2, kill=_raise_killed)
    assert cp.armed_site() == "wal.append"
    cp.crashpoint("wal_fsync")  # different site: untouched
    cp.crashpoint("wal.append")  # hit 1: skipped
    cp.crashpoint("wal.append")  # hit 2: skipped
    with pytest.raises(_Killed):
        cp.crashpoint("wal.append")  # hit 3: dies
    cp.disarm()
    cp.crashpoint("wal.append")  # disarmed again: noop
    assert cp.armed_site() is None


def test_torn_write_lands_payload_prefix_before_dying():
    fh = io.BytesIO()
    cp.arm("wal_write", torn=0.5, kill=_raise_killed)
    with pytest.raises(_Killed):
        cp.crashpoint("wal_write", payload=b"0123456789", fh=fh)
    assert fh.getvalue() == b"01234"


def test_torn_fraction_is_validated():
    with pytest.raises(ValueError):
        cp.arm("wal_write", torn=1.0)
    with pytest.raises(ValueError):
        cp.arm("wal_write", torn=-0.1)


def test_arm_from_env_parses_and_rejects_garbage():
    assert cp.arm_from_env({}) is None
    assert cp.armed_site() is None
    site = cp.arm_from_env({
        cp.ENV_SITE: "checkpoint.manifest",
        cp.ENV_AFTER: "3",
        cp.ENV_TORN: "",
    })
    assert site == "checkpoint.manifest"
    assert cp.armed_site() == "checkpoint.manifest"
    with pytest.raises(ValueError):
        cp.arm_from_env({cp.ENV_SITE: "wal.append", cp.ENV_AFTER: "soon"})


def test_wal_append_site_is_wired_into_the_real_append_path(tmp_path):
    server = PDRServer(
        small_system_config(),
        expected_objects=8,
        reliability=ReliabilityConfig(state_dir=str(tmp_path / "state")),
    )
    try:
        cp.arm("wal.append", kill=_raise_killed)
        with pytest.raises(_Killed):
            server.report(0, 10.0, 10.0, 0.1, 0.1)
    finally:
        cp.disarm()
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
    try:
        for oid in range(4):
            server.report(oid, 10.0 + oid, 10.0, 0.1, 0.1)
        acked = server.wal_lsn
        faults.inject_eio("wal_write")
        with pytest.raises(WALWriteError):
            server.report(5, 20.0, 20.0, 0.1, 0.1)
        assert server._manager.wal_poisoned
        cp.arm("wal.reopen", kill=_raise_killed)
        with pytest.raises(_Killed):
            server._manager.reopen_wal()
    finally:
        cp.disarm()
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
