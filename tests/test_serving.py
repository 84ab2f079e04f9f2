"""TCP front door: wire protocol, server limits, drain, resilient client.

The contract under test is the serving tier's, not the query engine's:
frames survive the wire byte-exact, oversized/garbled input degrades into
structured errors without killing well-behaved connections, pipelining is
bounded, drain refuses new work while finishing old work, ``not_primary``
redirects re-route writes, and — the retry invariant — the ``retry_after``
a shed carries over the wire is *exactly* the token bucket's own refill
estimate, which the client then actually sleeps.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import random
import socket
import threading
import time

import pytest

from tests.conftest import small_system_config
from repro import PDRServer
from repro.core.errors import (
    ProtocolError,
    RetriesExhaustedError,
)
from repro.reliability.admission import AdmissionConfig
from repro.reliability.faults import FaultInjector, VirtualClock
from repro.reliability.replication import ReplicationGroup
from repro.reliability.validation import ReliabilityConfig
from repro.serving.client import ClientConfig, ResilientClient, WireError
from repro.serving.protocol import (
    DEFAULT_MAX_FRAME,
    decode_frame,
    encode_frame,
    read_frame_sync,
    write_frame_sync,
)
from repro.serving import server as server_module
from repro.serving.loadtest import mount_group
from repro.serving.server import OPS, ServerThread, ServingConfig
from repro.telemetry import instruments as tm

N_OBJECTS = 48


def _make_group(state_dir, replicas=1, admission=None, faults=None):
    primary = PDRServer(
        small_system_config(),
        expected_objects=N_OBJECTS,
        reliability=ReliabilityConfig(
            state_dir=str(state_dir), fsync=False, faults=faults
        ),
    )
    rng = random.Random(11)
    primary.report_batch([
        (oid, rng.uniform(2.0, 98.0), rng.uniform(2.0, 98.0),
         rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        for oid in range(N_OBJECTS)
    ])
    primary.advance_to(1)
    return ReplicationGroup(
        primary,
        n_replicas=replicas,
        staleness_bound=1_000_000,
        admission=admission,
    )


@pytest.fixture
def front_door(tmp_path):
    group = _make_group(tmp_path / "state")
    thread = ServerThread(group, ServingConfig()).start()
    try:
        yield thread, group
    finally:
        thread.stop()
        group.close()


def _raw_conn(address):
    sock = socket.create_connection(address, timeout=5.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


# ----------------------------------------------------------------------
# protocol layer
# ----------------------------------------------------------------------
def test_frame_roundtrip_is_byte_exact():
    message = {"op": "report", "oid": 3, "x": 1.5, "unicode": "Ω≈ç"}
    assert decode_frame(encode_frame(message)[4:]) == message


def test_decode_rejects_garbage_and_non_objects():
    with pytest.raises(ProtocolError):
        decode_frame(b"\xff\x00 not json")
    with pytest.raises(ProtocolError):
        decode_frame(b"[1, 2, 3]")  # a frame must be a JSON object


def test_encode_enforces_max_frame():
    with pytest.raises(ProtocolError) as excinfo:
        encode_frame({"blob": "x" * 4096}, max_frame=1024)
    assert excinfo.value.code == "frame_too_large"


def test_sync_read_detects_truncation_and_clean_eof():
    a, b = socket.socketpair()
    try:
        write_frame_sync(a, {"op": "health"})
        assert read_frame_sync(b) == {"op": "health"}
        # a frame cut mid-body must be a ProtocolError, not a misparse
        data = encode_frame({"op": "status"})
        a.sendall(data[: len(data) // 2])
        a.close()
        with pytest.raises(ProtocolError):
            read_frame_sync(b)
    finally:
        b.close()
    # clean EOF exactly at a frame boundary is None (not an error)
    c, d = socket.socketpair()
    c.close()
    assert read_frame_sync(d) is None
    d.close()


# ----------------------------------------------------------------------
# server ops and limits
# ----------------------------------------------------------------------
def test_basic_ops_over_the_wire(front_door):
    thread, group = front_door
    with ResilientClient([thread.address]) as client:
        health = client.health()
        assert health["live"] and health["ready"]
        assert health["role"] == "primary"

        before = client.max_acked_lsn
        frame = client.report(1, 50.0, 50.0, 0.1, 0.1)
        assert frame["accepted"] and client.max_acked_lsn > before

        batch = client.report_batch(
            [(2, 40.0, 40.0, 0.0, 0.0), (3, 60.0, 60.0, 0.0, 0.0)]
        )
        assert batch["accepted"] == 2 and batch["rejected"] == 0

        assert client.retire(2)["retired"] is True

        t_before = client.health()["tnow"]
        assert client.advance(to=t_before + 1)["tnow"] == t_before + 1
        assert client.status()["ok"] is True

        for method in ("pa", "fr"):
            answer = client.query(method, qt_offset=1, varrho=2.0,
                                  max_regions=4)
            assert answer["method"] == method
            assert answer["n_regions"] >= len(answer["regions"])
            assert len(answer["regions"]) <= 4
            assert answer["area"] >= 0.0


def test_oid_beyond_int64_is_dead_lettered_over_the_wire(front_door):
    thread, group = front_door
    with ResilientClient([thread.address]) as client:
        lsn = group.primary.wal_lsn
        batch = client.report_batch(
            [(2**63, 40.0, 40.0, 0.0, 0.0), (2**64 + 5, 60.0, 60.0, 0.0, 0.0)]
        )
        assert (batch["accepted"], batch["rejected"]) == (0, 2)
        assert client.report(2**63, 50.0, 50.0, 0.1, 0.1)["accepted"] is False
        assert group.primary.wal_lsn == lsn  # nothing reached the log
        assert group.primary.dead_letters.counts["bad_oid"] == 3
        assert client.report(2**63 - 1, 50.0, 50.0, 0.1, 0.1)["accepted"] is True
        assert group.primary.wal_lsn == lsn + 1


@pytest.mark.parametrize("oid", [3.7, True, "9"])
def test_non_integer_oid_is_dead_lettered_not_coerced(front_door, oid):
    """``int(3.7)``, ``int(True)`` and ``int("9")`` are objects 3, 1 and 9:
    the id must reach the validator as decoded."""
    thread, group = front_door
    primary = group.primary
    with ResilientClient([thread.address]) as client:
        lsn = primary.wal_lsn
        before = sorted(primary.table.columns().oid.tolist())
        frame = client.request(
            {"op": "report", "oid": oid, "x": 50.0, "y": 50.0, "vx": 0.1, "vy": 0.1}
        )
        assert frame["accepted"] is False
        frame = client.request(
            {"op": "report_batch", "reports": [[oid, 40.0, 40.0, 0.0, 0.0]]}
        )
        assert (frame["accepted"], frame["rejected"]) == (0, 1)
        assert client.request({"op": "retire", "oid": oid})["retired"] is False
        assert primary.dead_letters.counts["bad_oid"] == 3
        assert primary.wal_lsn == lsn  # nothing reached the log
        assert sorted(primary.table.columns().oid.tolist()) == before


@pytest.mark.parametrize("max_regions", [-1, 1.5, "8", True])
def test_max_regions_must_be_a_non_negative_integer(front_door, max_regions):
    thread, _group = front_door
    config = ClientConfig(max_attempts=2)
    with ResilientClient([thread.address], config=config) as client:
        with pytest.raises(WireError) as excinfo:
            client.query("pa", varrho=2.0, max_regions=max_regions)
        assert excinfo.value.code == "bad_request"
        assert "max_regions" in str(excinfo.value)
        assert client.health()["live"]


def test_unknown_ops_share_one_metric_series(front_door):
    """The op string is the client's: it may not mint metric series."""
    thread, _group = front_door

    def op_labels(family):
        return {labels[0] for labels, _child in family.series()}

    unknown = tm.SERVING_FRAMES.labels("?", "error")
    before = unknown.value
    garbage = [f"no_such_op_{i}" for i in range(12)] + [7, None, ""]
    config = ClientConfig(max_attempts=2)
    with ResilientClient([thread.address], config=config) as client:
        for op in garbage:
            with pytest.raises(WireError) as excinfo:
                client.request({"op": op})
            assert excinfo.value.code == "bad_request"
        assert client.health()["live"]
    assert unknown.value == before + len(garbage)
    for family in (tm.SERVING_FRAMES, tm.SERVING_REQUEST_SECONDS):
        assert {"health", "?"} <= op_labels(family) <= set(OPS) | {"?"}


def test_every_op_of_the_table_answers_and_nothing_else_does(front_door):
    """One table at the front door: each of its keys, sent bare over a real
    socket, gets ``ok`` or a structured error under its own metric label;
    an op outside it is ``bad_request`` under ``"?"``."""
    thread, _group = front_door
    assert [op for op in OPS if OPS[op].reads] == ["fr_query", "pa_query", "query", "status"]
    ops = [op for op in OPS if op != "drain"] + ["drain"]  # nothing answers after it
    counted = {
        (op, outcome): tm.SERVING_FRAMES.labels(op, outcome).value
        for op in ops + ["?"] for outcome in ("ok", "error")
    }
    sock = _raw_conn(thread.address)
    try:
        write_frame_sync(sock, {"op": "flush", "id": "x"})
        refused = read_frame_sync(sock)
        assert (refused["ok"], refused["error"], refused["id"]) == (False, "bad_request", "x")
        assert "unknown op 'flush'" in refused["message"]
        counted["?", "error"] += 1
        for n, op in enumerate(ops):
            write_frame_sync(sock, {"op": op, "id": n})
            response = read_frame_sync(sock)
            assert response["id"] == n and isinstance(response["epoch"], int)
            if not response["ok"]:  # a bare write op lacks its fields
                assert response["error"] == "bad_request" and response["message"]
            counted[op, "ok" if response["ok"] else "error"] += 1
    finally:
        sock.close()
    for (op, outcome), want in counted.items():
        assert tm.SERVING_FRAMES.labels(op, outcome).value == want


def test_malformed_and_unknown_requests_are_bad_request(front_door):
    thread, _group = front_door
    config = ClientConfig(max_attempts=2)
    with ResilientClient([thread.address], config=config) as client:
        with pytest.raises(WireError) as excinfo:
            client.request({"op": "no_such_op"})
        assert excinfo.value.code == "bad_request"
        with pytest.raises(WireError) as excinfo:
            client.request({"op": "report", "oid": 1})  # missing coordinates
        assert excinfo.value.code == "bad_request"
        # the connection survived both rejections
        assert client.health()["live"]


def test_wrong_requests_cannot_lock_readers_out(tmp_path):
    """A client error is the client's: out-of-window and unknown-method
    frames get their error codes and leave every breaker closed, so the
    next valid frame is served."""
    group = _make_group(tmp_path / "state", replicas=0)  # what `--replicas 0` mounts
    thread = ServerThread(group, ServingConfig()).start()
    try:
        sock = _raw_conn(thread.address)
        try:
            def ask(**frame):
                write_frame_sync(sock, frame)
                return read_frame_sync(sock)

            beyond = group.config.horizon + 50
            for i in range(3):
                response = ask(op="fr_query", id=i, qt_offset=beyond, varrho=2.0)
                assert (response["ok"], response["error"]) == (False, "query_failed")
                assert "outside maintained window" in response["message"]
            for i in range(3):
                response = ask(op="query", id=10 + i, method="mystery", varrho=2.0)
                assert (response["ok"], response["error"]) == (False, "bad_request")
                assert "unknown method 'mystery'" in response["message"]
            response = ask(op="fr_query", id=20, qt_offset=1, varrho=2.0)
            assert response["ok"] and response["method"] == "fr"
            assert response["served_by"] == "primary"
        finally:
            sock.close()
        assert {b.state for b in group._breakers.values()} <= {"closed"}
    finally:
        thread.stop()
        group.close()


def test_a_reader_that_raises_releases_the_state_lock(front_door, monkeypatch):
    """A bug inside a read op is that frame's ``internal`` error, and the
    reader's share of the state lock goes with it: the next write, which
    needs the lock alone, is answered within the socket timeout."""
    thread, group = front_door

    def broken_query(*_args, **_kwargs):
        raise ZeroDivisionError("reader bug")

    monkeypatch.setattr(group, "query", broken_query)
    sock = _raw_conn(thread.address)  # every read waits at most 5 s
    try:
        write_frame_sync(sock, {"op": "fr_query", "id": 1, "qt_offset": 1, "varrho": 2.0})
        failed = read_frame_sync(sock)
        assert (failed["ok"], failed["error"], failed["id"]) == (False, "internal", 1)
        assert "ZeroDivisionError: reader bug" in failed["message"]
        write_frame_sync(sock, {
            "op": "report", "id": 2, "oid": 1, "x": 50.0, "y": 50.0, "vx": 0.0, "vy": 0.0,
        })
        served = read_frame_sync(sock)
        assert (served["ok"], served["accepted"], served["id"]) == (True, True, 2)
    finally:
        sock.close()
    lock = thread.server._state_lock
    assert (lock._readers, lock._writer_active, lock._writers_waiting) == (0, False, 0)


def test_oversized_frame_gets_error_but_connection_survives(tmp_path):
    group = _make_group(tmp_path / "state")
    thread = ServerThread(group, ServingConfig()).start()
    try:
        sock = _raw_conn(thread.address)
        try:
            # hand-build an announced length over the cap; the body must
            # still be drained so the next frame parses
            big = encode_frame({"op": "report", "pad": "y" * DEFAULT_MAX_FRAME},
                               max_frame=2 * DEFAULT_MAX_FRAME)
            sock.sendall(big)
            error = read_frame_sync(sock)
            assert error["error"] == "frame_too_large"
            write_frame_sync(sock, {"op": "health"})
            assert read_frame_sync(sock)["ok"] is True
        finally:
            sock.close()
    finally:
        thread.stop()
        group.close()


def test_pipelining_beyond_max_inflight_is_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(server_module, "MAX_INFLIGHT", 1)
    monkeypatch.setattr(server_module, "READ_WORKERS", 1)
    group = _make_group(tmp_path / "state")
    thread = ServerThread(group, ServingConfig()).start()
    try:
        # park the one reader thread so the first status request stays in
        # flight while the second arrives
        gate = thread.server._read_executor.submit(time.sleep, 0.4)
        sock = _raw_conn(thread.address)
        try:
            write_frame_sync(sock, {"op": "status", "id": 1})
            write_frame_sync(sock, {"op": "status", "id": 2})
            first = read_frame_sync(sock)
            assert first["error"] == "too_many_inflight"
            assert first["retry_after"] > 0.0
            assert first["id"] == 2  # the overflow request was refused
            second = read_frame_sync(sock)
            assert second["ok"] is True and second["id"] == 1
        finally:
            sock.close()
            gate.result()
    finally:
        thread.stop()
        group.close()


def test_drain_finishes_inflight_refuses_new_then_closes(tmp_path):
    group = _make_group(tmp_path / "state")
    thread = ServerThread(group, ServingConfig(drain_deadline=5.0)).start()
    try:
        gate = thread.server._executor.submit(time.sleep, 0.5)
        sock = _raw_conn(thread.address)
        write_frame_sync(sock, {"op": "report", "id": "w", "oid": 7,
                                "x": 30.0, "y": 30.0, "vx": 0.0, "vy": 0.0})
        # wait until the server actually holds the report in flight, so
        # the drain below must finish it rather than refuse it
        deadline = time.time() + 2.0
        while not thread.server._tasks and time.time() < deadline:
            time.sleep(0.005)
        assert thread.server._tasks
        drainer = threading.Thread(target=thread.drain)
        drainer.start()
        while not thread.server.draining and time.time() < deadline:
            time.sleep(0.005)
        assert thread.server.draining

        # liveness answers inline; readiness flipped the moment drain began
        write_frame_sync(sock, {"op": "health", "id": "h"})
        # new work is refused with the structured error + retry hint
        write_frame_sync(sock, {"op": "status", "id": "s"})

        got = {}
        for _ in range(3):
            frame = read_frame_sync(sock)
            got[frame.get("id")] = frame
        assert got["h"]["live"] is True and got["h"]["ready"] is False
        assert got["s"]["error"] == "draining"
        assert got["s"]["retry_after"] > 0.0
        assert got["w"]["ok"] is True  # in-flight write finished under drain
        gate.result()
        drainer.join(timeout=10.0)
        assert not drainer.is_alive()
        # once drained the connection is gone ...
        try:
            assert read_frame_sync(sock) is None
        except (ProtocolError, OSError):
            pass  # an abortive close is also "gone"
        sock.close()
        # ... and the port no longer accepts
        with pytest.raises(OSError):
            socket.create_connection(thread.address, timeout=0.5).close()
    finally:
        thread.stop()
        group.close()


def test_drain_is_idempotent_and_observed(front_door):
    thread, _group = front_door
    with ResilientClient([thread.address]) as client:
        assert client.drain()["draining"] is True
    thread.drain()  # concurrent/second drain must not error
    assert thread.server.draining


def _adopt_and_cancel(coro, _loop):
    """``run_coroutine_threadsafe`` on a loop whose exiting thread cancels
    the waiter it has just adopted."""
    coro.close()
    future = concurrent.futures.Future()
    future.cancel()
    return future


@pytest.mark.parametrize("lost_race", ["loop_closed", "waiter_cancelled"])
def test_second_drain_that_loses_the_race_is_already_drained(
    front_door, monkeypatch, lost_race
):
    """``thread.drain()`` passes its ``is_running()`` check, then the
    wire-initiated drain finishes and the loop thread winds down before the
    second drain's waiter runs: it must return, not raise."""
    thread, _group = front_door
    with ResilientClient([thread.address]) as client:
        assert client.drain()["draining"] is True
    thread._thread.join(timeout=10.0)  # the wire drain stopped the loop
    assert thread.server.drained and thread._loop.is_closed()
    monkeypatch.setattr(thread._loop, "is_running", lambda: True)  # check already passed
    if lost_race == "waiter_cancelled":
        monkeypatch.setattr(asyncio, "run_coroutine_threadsafe", _adopt_and_cancel)
    thread.drain()
    thread.stop()


def test_cancelled_drain_of_an_undrained_server_still_raises(front_door, monkeypatch):
    thread, _group = front_door

    with monkeypatch.context() as patched:
        patched.setattr(asyncio, "run_coroutine_threadsafe", _adopt_and_cancel)
        with pytest.raises(concurrent.futures.CancelledError):
            thread.drain()
    assert not thread.server.drained


# ----------------------------------------------------------------------
# redirects and failover visibility
# ----------------------------------------------------------------------
def test_not_primary_redirect_is_followed(front_door, tmp_path):
    thread, _group = front_door
    fenced = mount_group(PDRServer(
        small_system_config(), expected_objects=8,
        reliability=ReliabilityConfig(state_dir=str(tmp_path / "fenced"),
                                      fsync=False),
    ), 0, 0)
    fenced.primary.demote()
    fenced_thread = ServerThread(
        fenced, ServingConfig(primary_address=thread.address)
    ).start()
    try:
        config = ClientConfig(max_attempts=4, seed=3)
        with ResilientClient([fenced_thread.address], config=config) as client:
            frame = client.report(5, 55.0, 45.0, 0.0, 0.0)
            assert frame["accepted"] is True
            assert client.stats["redirects"] >= 1
            assert tuple(thread.address) in client.endpoints
    finally:
        fenced_thread.stop()
        fenced.close()


def test_client_sees_epoch_change_across_failover(tmp_path):
    group = _make_group(tmp_path / "state", replicas=2)
    thread = ServerThread(group, ServingConfig()).start()
    try:
        with ResilientClient([thread.address], ClientConfig(seed=5)) as client:
            client.report(9, 20.0, 20.0, 0.0, 0.0)
            epoch_before = client.epoch

            def _failover():
                group.mark_primary_dead()
                group.failover()

            thread.call(_failover)
            frame = client.report(9, 21.0, 20.0, 0.0, 0.0)
            assert frame["accepted"] is True
            assert client.epoch > epoch_before
            wal = thread.call(lambda: group.primary.wal_lsn or 0)
            assert client.max_acked_lsn <= wal  # no acked write lost
    finally:
        thread.stop()
        group.close()


# ----------------------------------------------------------------------
# the retry_after invariant, end to end
# ----------------------------------------------------------------------
def test_shed_retry_after_on_the_wire_equals_the_token_bucket(tmp_path):
    # the group's clock is virtual (FaultInjector default), so the bucket
    # refills only when *we* say: the wire value is exactly reproducible
    faults = FaultInjector()
    group = _make_group(
        tmp_path / "state",
        admission=AdmissionConfig(rate=1.0, burst=4.0),
        faults=faults,
    )
    thread = ServerThread(group, ServingConfig()).start()
    try:
        sock = _raw_conn(thread.address)
        try:
            # pa costs 2 tokens: two queries drain the burst of 4 to zero
            for _ in range(2):
                write_frame_sync(sock, {"op": "query", "method": "pa",
                                        "varrho": 2.0, "max_regions": 0})
                assert read_frame_sync(sock)["ok"] is True
            write_frame_sync(sock, {"op": "query", "method": "pa",
                                    "varrho": 2.0, "max_regions": 0})
            shed = read_frame_sync(sock)
            assert shed["error"] == "shed"
            # the cheapest rung below pa costs 1 token; at rate 1/s on a
            # frozen clock the bucket's own estimate is exactly 1.0s — and
            # that exact float must be what crossed the wire
            expected = thread.call(
                lambda: group.admission.bucket.seconds_until(1.0)
            )
            assert expected == 1.0
            assert shed["retry_after"] == expected
        finally:
            sock.close()

        # ... and the client sleeps what the server announced
        vclock = VirtualClock()
        config = ClientConfig(max_attempts=2, retry_after_cap=5.0, seed=1)
        with ResilientClient([thread.address], config=config,
                             clock=vclock) as client:
            with pytest.raises(RetriesExhaustedError):
                client.query("pa", varrho=2.0, max_regions=0)
            assert client.retry_after_honored == [1.0, 1.0]
            assert client.sheds_missing_retry_after == 0
            assert vclock.now() >= 2.0  # both hints actually slept
    finally:
        thread.stop()
        group.close()


# ----------------------------------------------------------------------
# satellites: build info metric, interrupt exit code
# ----------------------------------------------------------------------
def test_build_info_gauge_is_always_exported():
    from repro.telemetry import TELEMETRY, render_prometheus
    from repro.telemetry.exporters import REQUIRED_FAMILIES

    assert "repro_build_info" in REQUIRED_FAMILIES
    snapshot = TELEMETRY.registry.snapshot()
    families = {f["name"]: f for f in snapshot["families"]}
    info = families["repro_build_info"]
    (sample,) = info["series"]
    assert sample["value"] == 1.0
    assert set(sample["labels"]) == {"version", "python", "git_sha"}
    assert sample["labels"]["python"].count(".") == 2
    assert "repro_build_info{" in render_prometheus(snapshot)


def test_keyboard_interrupt_maps_to_130(monkeypatch):
    from repro import cli

    def _interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_chaos", _interrupted)
    assert cli.main(["chaos"]) == cli.EXIT_INTERRUPTED == 130
