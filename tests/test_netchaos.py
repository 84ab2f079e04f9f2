"""Socket-fault injection: the chaos proxy and network chaos campaigns.

Each proxy fault is first exercised in isolation through a real server
and the resilient client — the client must ride it out and the armed
fault must be consumed exactly once.  Then short seeded campaigns run
the whole schedule over TCP and every oracle (including the two network
invariants: no acked write lost to a reset, every shed carries
``retry_after``) must stay green.
"""

from __future__ import annotations

import time

import pytest

from tests.conftest import small_system_config
from repro import PDRServer
from repro.reliability.chaos import (
    MIN_NET_DISRUPTIONS,
    NET_DISRUPTIONS,
    ChaosConfig,
    ChaosScheduler,
)
from repro.reliability.replication import ReplicationGroup
from repro.reliability.validation import ReliabilityConfig
from repro.serving.client import ClientConfig, ResilientClient
from repro.serving.netchaos import ChaosProxy
from repro.serving.server import ServerThread, ServingConfig


@pytest.fixture
def proxied(tmp_path):
    """server <- proxy <- client, with everything needed to arm faults."""
    primary = PDRServer(
        small_system_config(),
        expected_objects=16,
        reliability=ReliabilityConfig(state_dir=str(tmp_path / "state"),
                                      fsync=False),
    )
    primary.report_batch([
        (oid, 20.0 + oid, 30.0 + oid, 0.1, 0.1) for oid in range(16)
    ])
    group = ReplicationGroup(
        primary, n_replicas=1,
        staleness_bound=1_000_000,
    )
    thread = ServerThread(
        group, ServingConfig(read_timeout=0.5, write_timeout=2.0)
    ).start()
    proxy = ChaosProxy(thread.address)
    client = ResilientClient(
        [proxy.address],
        ClientConfig(connect_timeout=0.5, request_timeout=1.5,
                     max_attempts=6, backoff_base=0.01, backoff_cap=0.1,
                     seed=13, breaker_threshold=10),
    )
    try:
        yield client, proxy, thread, group
    finally:
        client.close()
        proxy.close()
        thread.stop()
        group.close()


def test_passthrough_forwards_both_ways(proxied):
    client, proxy, _thread, _group = proxied
    assert client.health()["ok"] is True
    assert client.report(1, 25.0, 35.0, 0.0, 0.0)["accepted"] is True
    assert proxy.stats["connections"] >= 1
    assert proxy.stats["resets"] == 0


def test_connection_reset_does_not_lose_the_acked_write(proxied):
    client, proxy, thread, group = proxied
    client.health()  # pin a healthy connection first
    proxy.reset_next()
    client.reconnect()  # faults are consumed per-connection
    frame = client.report(2, 40.0, 40.0, 0.0, 0.0)
    # the client retried through the RST and got the (re-issued) ack
    assert frame["accepted"] is True
    assert proxy.stats["resets"] == 1
    assert client.stats["connection_errors"] >= 1
    # the oracle the chaos campaign runs after every disruption:
    wal = thread.call(lambda: group.primary.wal_lsn or 0)
    assert client.max_acked_lsn <= wal


def test_truncated_response_is_detected_and_retried(proxied):
    client, proxy, _thread, _group = proxied
    proxy.truncate_next()
    client.reconnect()
    assert client.health()["ok"] is True  # a retry rode out the cut frame
    assert proxy.stats["truncations"] == 1
    assert client.stats["connection_errors"] >= 1


def test_slowloris_request_is_cut_by_the_read_timeout(proxied):
    client, proxy, _thread, _group = proxied
    # dribbling 2 bytes every 0.2s starves the server's 0.5s read
    # timeout long before a whole frame arrives
    proxy.slowloris_next(delay=0.2)
    client.reconnect()
    t0 = time.monotonic()
    assert client.report(3, 50.0, 50.0, 0.0, 0.0)["accepted"] is True
    assert proxy.stats["slowloris"] == 1
    assert time.monotonic() - t0 >= 0.3  # the first attempt really stalled


def test_accept_stall_delays_but_does_not_fail(proxied):
    client, proxy, _thread, _group = proxied
    proxy.stall_accept(0.4)
    client.reconnect()
    t0 = time.monotonic()
    assert client.health()["ok"] is True
    assert time.monotonic() - t0 >= 0.25
    assert proxy.stats["stalls"] == 1


# ----------------------------------------------------------------------
# seeded campaigns over the wire
# ----------------------------------------------------------------------
def test_network_schedule_forces_socket_faults():
    config = ChaosConfig(seed=1, events=60, network=True)
    scheduler = ChaosScheduler(config, workdir="/tmp/unused-netchaos-sched")
    schedule = scheduler.build_schedule()
    net_events = [e for e in schedule if e[0] in NET_DISRUPTIONS]
    assert len(net_events) >= MIN_NET_DISRUPTIONS
    assert schedule == scheduler.build_schedule()  # seed-deterministic


@pytest.mark.parametrize("seed", [3, 5])
def test_network_campaign_all_oracles_green(tmp_path, seed):
    config = ChaosConfig(seed=seed, events=70, network=True, shrink=False)
    result = ChaosScheduler(config, workdir=str(tmp_path)).run()
    assert result.ok, result.format_reproducer()
    assert result.events_run == 70
    wire = result.stats["wire"]
    assert wire["sheds_missing_retry_after"] == 0
    assert result.stats["proxy"]["connections"] >= 1
    # the tight admission burst must actually have exercised shedding —
    # otherwise the retry_after oracle is vacuous
    assert wire.get("sheds_honored", 0) >= 1
