"""Cross-process trace propagation over the wire.

The contract: one logical client operation is one trace — the envelope
minted before the retry loop rides every retry and redirect unchanged;
the server adopts it across the executor hop so its dispatch tree joins
the client's trace; sampled success frames return that tree and the
client stitches a single client→server span tree an operator can pull
up with ``repro trace``.
"""

from __future__ import annotations

import random
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import small_system_config
from repro import PDRServer
from repro.reliability.replication import ReplicationGroup
from repro.reliability.validation import ReliabilityConfig
from repro.serving.client import ClientConfig, ResilientClient
from repro.serving.protocol import (
    decode_frame,
    encode_frame,
    make_trace_envelope,
    parse_trace_envelope,
    read_frame_sync,
    write_frame_sync,
)
from repro.serving.server import ServerThread, ServingConfig
from repro.telemetry import TELEMETRY, new_trace_id


# ----------------------------------------------------------------------
# envelope round-trip
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    trace_id=st.text(
        alphabet="0123456789abcdef", min_size=1, max_size=32
    ),
    parent_id=st.one_of(
        st.none(),
        st.text(alphabet="0123456789abcdef", min_size=1, max_size=16),
    ),
    sampled=st.booleans(),
)
def test_envelope_survives_the_wire_byte_exact(trace_id, parent_id, sampled):
    message = {
        "op": "fr_query",
        "varrho": 2.0,
        "trace": make_trace_envelope(trace_id, parent_id, sampled),
    }
    decoded = decode_frame(encode_frame(message)[4:])
    assert parse_trace_envelope(decoded) == (trace_id, parent_id, sampled)


@pytest.mark.parametrize("envelope", [
    None,                                   # absent
    "not-a-dict",
    {},                                     # no trace_id
    {"trace_id": 17},                       # wrong type
    {"trace_id": ""},                       # empty
    {"trace_id": "abc", "parent_id": 5},    # bad parent degrades, not errors
])
def test_malformed_envelopes_degrade_to_untraced(envelope):
    message = {"op": "health"}
    if envelope is not None:
        message["trace"] = envelope
    parsed = parse_trace_envelope(message)
    if isinstance(envelope, dict) and envelope.get("trace_id") == "abc":
        assert parsed == ("abc", None, False)  # parent coerced to None
    else:
        assert parsed is None


def test_trace_ids_are_pid_prefixed_and_unique():
    import os

    a, b = new_trace_id(), new_trace_id()
    assert a != b
    assert a.startswith(f"{os.getpid():08x}")


# ----------------------------------------------------------------------
# a scripted front door: deterministic sheds and redirects
# ----------------------------------------------------------------------
class ScriptedServer:
    """Speaks the wire protocol, answering from a queue of frames.

    Records every request frame it sees, so tests can assert what the
    client actually put on the wire across retries and redirects.
    """

    def __init__(self, script):
        self.script = list(script)
        self.received = []
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.address = self.sock.getsockname()
        self._stop = False
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while not self._stop:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            try:
                while True:
                    message = read_frame_sync(conn)
                    if message is None:
                        break
                    self.received.append(message)
                    if not self.script:
                        response = {"ok": True, "epoch": 1}
                    else:
                        response = self.script.pop(0)
                    write_frame_sync(conn, response)
            except Exception:
                pass
            finally:
                conn.close()

    def close(self):
        self._stop = True
        try:
            self.sock.close()
        except OSError:
            pass


def test_one_envelope_rides_every_retry(tmp_path):
    # two sheds, then success: three wire attempts, one logical op
    server = ScriptedServer([
        {"ok": False, "error": "shed", "message": "busy",
         "retry_after": 0.0, "epoch": 1},
        {"ok": False, "error": "shed", "message": "busy",
         "retry_after": 0.0, "epoch": 1},
        {"ok": True, "accepted": 1, "lsn": 1, "epoch": 1},
    ])
    try:
        client = ResilientClient(
            [server.address],
            config=ClientConfig(trace_sample=1, max_attempts=5,
                                backoff_base=0.001, backoff_cap=0.002,
                                seed=7),
        )
        client.report(1, 10.0, 10.0, 0.0, 0.0)
        client.close()
        assert len(server.received) == 3
        envelopes = [parse_trace_envelope(m) for m in server.received]
        assert all(e is not None for e in envelopes)
        assert len({e for e in envelopes}) == 1  # identical across retries
        (trace,) = client.traces
        assert trace["trace_id"] == envelopes[0][0]
        assert trace["attrs"]["attempts"] == 3
    finally:
        server.close()


def test_one_envelope_rides_a_redirect(tmp_path):
    final = ScriptedServer([
        {"ok": True, "accepted": 1, "lsn": 7, "epoch": 2},
    ])
    first = ScriptedServer([
        {"ok": False, "error": "not_primary", "message": "go elsewhere",
         "redirect": list(final.address), "epoch": 2},
    ])
    try:
        client = ResilientClient(
            [first.address],
            config=ClientConfig(trace_sample=1, max_attempts=5,
                                backoff_base=0.001, seed=7),
        )
        client.report(2, 20.0, 20.0, 0.0, 0.0)
        client.close()
        assert len(first.received) == 1 and len(final.received) == 1
        env_first = parse_trace_envelope(first.received[0])
        env_final = parse_trace_envelope(final.received[0])
        assert env_first == env_final  # the redirect did not re-mint
        (trace,) = client.traces
        assert trace["trace_id"] == env_first[0]
    finally:
        first.close()
        final.close()


def test_unsampled_requests_carry_no_envelope():
    server = ScriptedServer([
        {"ok": True, "accepted": 1, "lsn": 1, "epoch": 1},
        {"ok": True, "accepted": 1, "lsn": 2, "epoch": 1},
    ])
    try:
        client = ResilientClient(
            [server.address], config=ClientConfig(trace_sample=2, seed=7)
        )
        client.report(1, 10.0, 10.0, 0.0, 0.0)  # index 0: sampled
        client.report(2, 10.0, 10.0, 0.0, 0.0)  # index 1: not
        client.close()
        assert parse_trace_envelope(server.received[0]) is not None
        assert parse_trace_envelope(server.received[1]) is None
        assert server.received[1].get("trace") is None  # message untouched
    finally:
        server.close()


# ----------------------------------------------------------------------
# live front door: the stitched tree crosses the executor hop
# ----------------------------------------------------------------------
N_OBJECTS = 48


def _tree_names(tree):
    names = {tree.get("name")}
    names.update((tree.get("stages") or {}).keys())
    for child in tree.get("children") or ():
        names |= _tree_names(child)
    return names


@pytest.fixture
def traced_front_door(tmp_path):
    primary = PDRServer(
        small_system_config(),
        expected_objects=N_OBJECTS,
        reliability=ReliabilityConfig(state_dir=str(tmp_path / "state")),
    )
    rng = random.Random(11)
    primary.report_batch([
        (oid, rng.uniform(2.0, 98.0), rng.uniform(2.0, 98.0),
         rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        for oid in range(N_OBJECTS)
    ])
    primary.advance_to(1)
    group = ReplicationGroup(
        primary, n_replicas=1,
        staleness_bound=1_000_000,
    )
    thread = ServerThread(group, ServingConfig()).start()
    try:
        yield thread
    finally:
        thread.stop()
        group.close()


def test_sampled_fr_query_yields_one_stitched_tree(traced_front_door):
    client = ResilientClient(
        [traced_front_door.address], config=ClientConfig(trace_sample=1)
    )
    try:
        frame = client.query("fr", qt_offset=1, varrho=2.0)
        assert frame.get("trace"), "sampled success frame must carry a tree"
        (trace,) = client.traces
        names = _tree_names(trace)
        # the full acceptance chain: client span, server dispatch span,
        # and the five refinement stage spans
        assert "client_request" in names
        assert "dispatch" in names
        for stage in ("filter", "fuse", "fetch", "sweep", "merge"):
            assert stage in names, f"stage {stage} missing from {names}"
        # the server tree joined the *client's* trace id end to end
        def all_trace_ids(tree):
            ids = {tree.get("trace_id")} - {None}
            for child in tree.get("children") or ():
                ids |= all_trace_ids(child)
            return ids
        assert all_trace_ids(trace) == {trace["trace_id"]}
    finally:
        client.close()


def test_reader_pool_dispatch_adopts_without_leaking(traced_front_door):
    # several sampled reads back to back: the executor threads must
    # adopt per-request and restore, never bleeding one request's trace
    # into the next
    client = ResilientClient(
        [traced_front_door.address], config=ClientConfig(trace_sample=1)
    )
    try:
        ids = set()
        for _ in range(4):
            frame = client.query("pa", qt_offset=1, varrho=2.0)
            ids.add(frame["trace"]["trace_id"])
        assert len(ids) == 4  # four ops, four distinct traces
        assert len(client.traces) == 4
    finally:
        client.close()


def test_unsampled_queries_against_live_server_stay_untraced(traced_front_door):
    client = ResilientClient(
        [traced_front_door.address], config=ClientConfig()  # sampling off
    )
    try:
        frame = client.query("pa", qt_offset=1, varrho=2.0)
        assert "trace" not in frame
        assert not client.traces
    finally:
        client.close()


def test_slow_query_exemplars_carry_the_wire_trace_id(traced_front_door):
    TELEMETRY.slow_queries.clear()
    client = ResilientClient(
        [traced_front_door.address], config=ClientConfig(trace_sample=1)
    )
    try:
        frame = client.query("fr", qt_offset=1, varrho=2.0)
        tid = frame["trace"]["trace_id"]
    finally:
        client.close()
    entries = [
        e for e in TELEMETRY.slow_queries.entries() if e.trace_id == tid
    ]
    assert entries, "the traced query must land in the slow log"
    assert entries[0].journal_seq is not None  # joinable to the journal
