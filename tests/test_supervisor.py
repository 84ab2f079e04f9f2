"""Supervisor: restart-on-SIGKILL, crash loops, terminal exits.

These tests spawn **real OS processes** (``python -m repro serve``
children) because that is the supervisor's whole contract: notice a
corpse the kernel made, restart it over the same state dir at the same
pinned port, and let an already-connected :class:`ResilientClient` ride
the outage out.  Kept deliberately few and time-bounded — the full
crashpoint × seed sweep lives in the chaos scheduler's process plane
(``repro chaos --process --seed N``), not here.
"""

from __future__ import annotations

import io
import os
import signal
import time

import pytest

from repro.core.errors import ClientError, ServingError
from repro.reliability.lockfile import acquire_state_dir_lock
from repro.serving import supervisor as supervisor_module
from repro.serving.client import ClientConfig, ResilientClient
from repro.serving.supervisor import (
    EXIT_CRASH_LOOP,
    Supervisor,
    SupervisorConfig,
)


def _config(tmp_path, **overrides) -> SupervisorConfig:
    settings = dict(
        serve_args=["--state-dir", str(tmp_path / "state"),
                    "--objects", "16", "--replicas", "0", "--seed", "3"],
        seed=7,
    )
    settings.update(overrides)
    return SupervisorConfig(**settings)


def _wait(predicate, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return False


def test_sigkill_restart_is_transparent_to_a_connected_client(tmp_path):
    events = io.StringIO()
    supervisor = Supervisor(_config(tmp_path), out=events).start()
    try:
        assert supervisor.wait_ready(60.0)
        port = supervisor.port
        first_pid = supervisor.pid
        client = ResilientClient(
            [("127.0.0.1", port)],
            ClientConfig(max_attempts=12, backoff_cap=0.5, seed=1),
        )
        try:
            frame = client.report(0, 50.0, 50.0, 0.1, 0.1)
            assert frame["accepted"]
            acked_before = client.max_acked_lsn

            os.kill(first_pid, signal.SIGKILL)
            assert _wait(lambda: supervisor.restarts >= 1, 60.0)
            assert supervisor.wait_ready(60.0)
            # port pinning: the restart is at the address the client knows
            assert supervisor.port == port
            assert supervisor.pid != first_pid

            # the client reconnects through its retry/breaker machinery —
            # no new client object, no re-discovery by the test
            deadline = time.monotonic() + 60.0
            accepted = 0
            while accepted < 3 and time.monotonic() < deadline:
                try:
                    frame = client.report(1, 60.0, 60.0, 0.1, 0.1)
                    accepted += frame.get("accepted", 0)
                except (ClientError, ServingError, OSError):
                    pass
            assert accepted >= 3, "client never rode out the restart"
            assert client.max_acked_lsn > acked_before
            # recovery generation bumped exactly as health advertises it
            client.health()
            assert client.generation >= 1
            assert client.stats["connects"] >= 2
        finally:
            client.close()
    finally:
        supervisor.request_stop()
        assert supervisor.join(30.0) == 0
    log = events.getvalue()
    assert "event=ready" in log
    assert "event=backoff" in log
    assert "code=137" in log  # the SIGKILL was seen as such


def test_crash_loop_gives_up_with_exit_12(tmp_path, monkeypatch):
    # a snapshot that does not exist crashes every incarnation with the
    # (retryable) storage exit 3 — the definition of a crash loop
    monkeypatch.setattr(supervisor_module, "BACKOFF_INITIAL", 0.02)
    monkeypatch.setattr(supervisor_module, "BACKOFF_MAX", 0.05)
    monkeypatch.setattr(supervisor_module, "CRASH_LOOP_THRESHOLD", 3)
    monkeypatch.setattr(supervisor_module, "CRASH_LOOP_WINDOW", 60.0)
    events = io.StringIO()
    supervisor = Supervisor(
        _config(tmp_path, serve_args=["--snapshot", str(tmp_path / "missing.npz")]),
        out=events,
    )
    assert supervisor.run() == EXIT_CRASH_LOOP
    assert supervisor.exit_code == EXIT_CRASH_LOOP
    log = events.getvalue()
    assert "reason=crash-loop" in log
    assert log.count("event=start") == 3  # threshold spawns, then give up


def test_locked_state_dir_is_terminal_not_a_restart_burner(tmp_path):
    state_dir = tmp_path / "state"
    state_dir.mkdir()
    lock = acquire_state_dir_lock(str(state_dir))
    events = io.StringIO()
    try:
        supervisor = Supervisor(_config(tmp_path), out=events)
        assert supervisor.run() == 11  # passed through, no respawn
        assert supervisor.restarts == 0
        assert "reason=non-retryable" in events.getvalue()
    finally:
        lock.release()


def test_clean_drain_on_stop(tmp_path):
    events = io.StringIO()
    supervisor = Supervisor(_config(tmp_path), out=events).start()
    assert supervisor.wait_ready(60.0)
    supervisor.request_stop()
    assert supervisor.join(30.0) == 0
    log = events.getvalue()
    assert "event=drain" in log
    assert "event=stopped code=0" in log
    assert "event=drain-timeout" not in log
