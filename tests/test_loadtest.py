"""The load harness: mixes, arrival schedules, verdicts, failover runs.

Short self-hosted runs only — the point is that the harness measures and
judges correctly, not that this box is fast.  The expensive properties
(SLO math, zero-acked-write-loss accounting, flash-crowd ramp) are
checked on synthetic results where they are exact.
"""

from __future__ import annotations

import json
import shutil
import tempfile

import pytest

from repro.core.errors import InvalidParameterError
from repro.serving.loadtest import (
    LoadTestConfig,
    LoadTestResult,
    MIXES,
    _open_loop_arrivals,
    build_serving_group,
    run_loadtest,
)
from repro.serving.server import ServerThread, ServingConfig


@pytest.fixture(scope="module")
def hosted():
    """One small serving group shared by the non-failover run tests."""
    workdir = tempfile.mkdtemp(prefix="loadtest-")
    group = build_serving_group(workdir + "/state", objects=32, replicas=1)
    thread = ServerThread(group, ServingConfig()).start()
    try:
        yield thread
    finally:
        thread.stop()
        group.close()
        shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# configuration and schedule logic (no sockets)
# ----------------------------------------------------------------------
def test_config_validation_rejects_bad_scenarios():
    with pytest.raises(InvalidParameterError):
        LoadTestConfig(mix="write-only").validate()
    with pytest.raises(InvalidParameterError):
        LoadTestConfig(mode="half-open").validate()
    with pytest.raises(InvalidParameterError):
        LoadTestConfig(duration=0.0).validate()
    for mix in MIXES:
        LoadTestConfig(mix=mix).validate()


def test_open_loop_arrivals_are_deterministic_with_flash_ramp():
    base = LoadTestConfig(mix="report-heavy", mode="open", rate=30.0,
                          duration=3.0)
    flash = LoadTestConfig(mix="flash-crowd", mode="open", rate=30.0,
                           duration=3.0)
    plain = _open_loop_arrivals(base)
    crowd = _open_loop_arrivals(flash)
    assert plain == _open_loop_arrivals(base)  # pure function of config
    assert crowd == _open_loop_arrivals(flash)
    # the ramp adds arrivals only inside the middle third
    third = base.duration / 3.0

    def _in_middle(schedule):
        return sum(1 for t in schedule if third <= t < 2 * third)

    assert _in_middle(crowd) > _in_middle(plain) * 4
    assert len([t for t in crowd if t < third]) == len(
        [t for t in plain if t < third]
    )
    assert all(b > a for a, b in zip(crowd, crowd[1:]))  # monotone


def test_slo_verdict_math_on_synthetic_results():
    result = LoadTestResult(
        config=LoadTestConfig(report_slo_p99_ms=10.0, query_slo_p99_ms=10.0),
        elapsed=1.0,
        latencies_ms={"report": [5.0, 50.0], "query": [2.0]},
        ops=3,
        max_acked_lsn=7,
        final_wal_lsn=5,  # two acked writes beyond the durable position
    )
    verdicts = result.slo_verdicts()
    assert verdicts["report_p99"] is False  # p99 = 50ms > 10ms
    assert verdicts["query_p99"] is True
    assert result.acked_write_loss == 2
    assert verdicts["zero_acked_write_loss"] is False
    assert result.ok is False
    # a missing retry_after is a failure on its own
    healthy = LoadTestResult(config=LoadTestConfig(), elapsed=1.0, ops=1,
                             latencies_ms={"report": [1.0]})
    assert healthy.ok is True
    healthy.sheds_missing_retry_after = 1
    assert healthy.slo_verdicts()["retry_after_always_present"] is False
    assert healthy.ok is False


# ----------------------------------------------------------------------
# live runs (short)
# ----------------------------------------------------------------------
def test_closed_loop_run_passes_and_serializes(hosted):
    config = LoadTestConfig(mix="report-heavy", mode="closed", duration=1.2,
                            concurrency=2, seed=3, objects=32,
                            report_slo_p99_ms=2000.0,
                            query_slo_p99_ms=5000.0)
    result = run_loadtest([hosted.address], config=config)
    assert result.ops > 0 and result.failed_ops == 0
    assert result.acked_reports > 0
    assert result.acked_write_loss == 0
    assert result.final_wal_lsn >= result.max_acked_lsn > 0
    assert result.ok, result.slo_verdicts()
    payload = json.loads(json.dumps(result.to_dict()))
    assert payload["ok"] is True
    assert payload["latency_ms"]["report"]["count"] > 0
    assert "verdict: PASS" in result.summary()


def test_query_heavy_sheds_carry_retry_after():
    """Overloaded query-heavy traffic sheds, and every shed names a wait.

    The reader pool made query-heavy load genuinely concurrent, so the
    admission bucket is now hit from several threads at once — the shed
    path must still attach the bucket's computed ``retry_after`` to every
    rejection (the client counts any shed without one).
    """
    workdir = tempfile.mkdtemp(prefix="loadtest-shed-")
    # burst = 2 x rate: a bucket of 3 tokens, at most one pa and one bound
    group = build_serving_group(workdir + "/state", objects=32, replicas=1,
                                admission_rate=1.5)
    thread = ServerThread(group, ServingConfig()).start()
    try:
        config = LoadTestConfig(mix="query-heavy", mode="closed",
                                duration=1.5, concurrency=3, seed=13,
                                objects=32, max_failure_ratio=1.0,
                                report_slo_p99_ms=20000.0,
                                query_slo_p99_ms=20000.0)
        result = run_loadtest([thread.address], config=config)
        assert result.ops > 0
        assert result.sheds_honored > 0
        assert result.sheds_missing_retry_after == 0
        assert result.slo_verdicts()["retry_after_always_present"] is True
    finally:
        thread.stop()
        group.close()
        shutil.rmtree(workdir, ignore_errors=True)


def test_open_loop_run_executes_the_whole_schedule(hosted):
    config = LoadTestConfig(mix="query-heavy", mode="open", duration=1.0,
                            rate=30.0, concurrency=2, seed=5, objects=32,
                            report_slo_p99_ms=5000.0,
                            query_slo_p99_ms=10000.0)
    result = run_loadtest([hosted.address], config=config)
    # open loop: every scheduled arrival becomes exactly one op
    assert result.ops == len(_open_loop_arrivals(config))
    assert result.failed_ops == 0
    assert result.acked_write_loss == 0
    assert result.percentiles("query")["count"] > 0


def test_failover_under_load_loses_no_acked_write(tmp_path):
    group = build_serving_group(str(tmp_path / "state"), objects=32,
                                replicas=2)
    thread = ServerThread(group, ServingConfig()).start()
    try:
        def _kill_primary():
            def _do():
                group.mark_primary_dead()
                group.failover()
            thread.call(_do)

        config = LoadTestConfig(mix="report-heavy", mode="closed",
                                duration=2.4, concurrency=2, seed=11,
                                objects=32, kill_primary_at=0.8,
                                report_slo_p99_ms=5000.0,
                                query_slo_p99_ms=10000.0)
        result = run_loadtest([thread.address], config=config,
                              kill_primary=_kill_primary)
        assert result.epoch_changes >= 1
        assert result.final_epoch >= 2
        assert result.acked_write_loss == 0, (
            f"acked writes lost across failover: max acked "
            f"{result.max_acked_lsn} > WAL {result.final_wal_lsn}"
        )
        assert result.ok, result.slo_verdicts()
    finally:
        thread.stop()
        group.close()
