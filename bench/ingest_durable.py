"""``ingest_durable``: the write path and crash recovery, in-process.

Set-up bulk-loads the CH world into an empty durable server (one fsynced
wave).  Phase B streams ticks of ``advance_to`` + ``report_batch`` for 40 %
of the window, checkpoints, and streams a fixed tail of ticks behind the
checkpoint, so every recovery loads one image and replays the same number
of ticks.  Phase C closes the server and recovers copies of its state
directory.  Phase D runs query passes on a recovered server for the rest of
the window: the write path has done all the work so far, and what a user
sees next is whether the restarted server answers as the live one did.
"""

from __future__ import annotations

import os
import shutil
import time

from bench import harness
from bench.checks import same_region
from bench.stats import median, rate_median
from bench.trace import SpanRecorder
from bench.worlds import road_inputs
from repro.core.system import PDRServer
from repro.reliability.recovery import load_latest_checkpoint

WRITE_SHARE = 0.4  # of the window; the query passes on the recovered server get the rest
TAIL_BLOCKS = 1  # blocks of ticks streamed behind the checkpoint, for recovery to replay
PROBES = 3  # FR queries compared between the live and the recovered server


def _dir_bytes(path: str, prefix: str) -> int:
    return sum(
        os.path.getsize(os.path.join(path, name))
        for name in os.listdir(path) if name.startswith(prefix)
    )


def _stream_ticks(ctx, server, inputs, seconds):
    """Blocks of ticks for ``seconds``; returns the (reports, busy) blocks."""
    blocks = []
    started = time.perf_counter()
    while not blocks or time.perf_counter() - started < seconds:
        blocks.append(harness.run_ticks(ctx, server, inputs, harness.TICKS_PER_BLOCK))
    return blocks


def run(ctx: harness.Context) -> None:
    slowdown = ctx.slowdown()
    inputs = road_inputs(ctx.scale["road"], ctx.seed)
    gen_seconds = inputs.gen_seconds / slowdown
    ctx.note_inputs(inputs)
    ctx.notes["flush_policy"] = "fsync=True: one fsynced group commit per wave"
    m = ctx.metrics

    # Set-up = phase A: the durable bulk load, several times over.
    setups = []
    server = None
    for i in ctx.repeats():
        if server is not None:
            server.close()
        slowdown = ctx.slowdown()
        server, seconds = harness.build_server(inputs, ctx.subdir(f"state-{i}"))
        setups.append(seconds / slowdown)
    state_dir = server.reliability.state_dir
    m["setup_s"] = gen_seconds + median(setups)
    m["core.bulk_load_reports_per_s"] = inputs.n_objects / median(setups)

    # Phase B: durable ticks.
    def checkpoint() -> None:
        t0 = time.perf_counter()
        server.checkpoint()
        m["reliability.checkpoint_s"] = time.perf_counter() - t0
        m["reliability.checkpoint_bytes_per_object"] = (
            _dir_bytes(state_dir, "ckpt-") / server.object_count()
        )

    harness.run_ticks(ctx, server, inputs, harness.TICKS_PER_BLOCK)  # warm-up, discarded
    budget = WRITE_SHARE * ctx.seconds
    if ctx.trace:
        plain = _stream_ticks(ctx, server, inputs, budget / 2)
        ctx.recorder = SpanRecorder()
        harness.instrument_writes(ctx.recorder, server)
        wal_before = _dir_bytes(state_dir, "wal-")
        fsyncs_before = server._manager._wal.fsync_calls
        blocks = _stream_ticks(ctx, server, inputs, budget / 2)
        ctx.recorder.unwrap_all()
        harness.write_layer_metrics(ctx, ctx.recorder)
        waves = len(ctx.recorder.durations("wave"))
        reports = sum(count for count, _ in blocks)
        # one advance record per tick shares the WAL with the reports
        m["reliability.wal_bytes_per_report"] = (
            (_dir_bytes(state_dir, "wal-") - wal_before) / reports
        )
        m["reliability.wal_fsyncs_per_wave"] = (
            (server._manager._wal.fsync_calls - fsyncs_before) / waves
        )
        m["telemetry.overhead_ratio"] = rate_median(blocks) / rate_median(plain)
    else:
        blocks = _stream_ticks(ctx, server, inputs, budget)
    checkpoint()
    for _ in range(TAIL_BLOCKS):
        blocks.append(harness.run_ticks(ctx, server, inputs, harness.TICKS_PER_BLOCK))
    m["reports_per_s"] = rate_median(blocks)
    ctx.notes["tick_blocks"] = len(blocks)

    # Phase C: restart.
    live = server
    live.close()
    sidecar = load_latest_checkpoint(state_dir)[1]
    # the WAL tail holds one advance record per tick beside the reports
    tail_reports = (live.wal_lsn - sidecar["lsn"]) - (live.tnow - sidecar["tnow"])
    recovered = None
    seconds = []
    for i in ctx.repeats():
        if recovered is not None:
            recovered.close()
        copy = ctx.subdir(f"recover-{i}")
        shutil.copytree(state_dir, copy)
        slowdown = ctx.slowdown()
        t0 = time.perf_counter()
        recovered = PDRServer.recover(copy)  # audits; raises on a violation
        seconds.append((time.perf_counter() - t0) / slowdown)
    m["restart_s"] = median(seconds)
    if ctx.trace:
        _recovery_breakdown(ctx, state_dir, tail_reports, median(seconds))

    ok = ctx.checks.record(
        "recovered_equals_live",
        recovered.tnow == live.tnow
        and recovered.object_count() == live.object_count()
        and recovered.wal_lsn == live.wal_lsn
        and not recovered.audit(raise_on_violation=False),
        f"tnow {recovered.tnow}/{live.tnow} objects {recovered.object_count()}/"
        f"{live.object_count()} lsn {recovered.wal_lsn}/{live.wal_lsn}",
    )
    ctx.op(ok)
    for l, varrho, offset in inputs.fr_queries[:PROBES]:
        probe = dict(qt=live.tnow + offset, l=l, varrho=varrho)
        ok = ctx.checks.record(
            "recovered_answer_equals_live",
            same_region(recovered.query("fr", **probe), live.query("fr", **probe)),
            f"FR answers differ for {probe}",
        )
        ctx.op(ok)

    # Phase D: the recovered server serves.
    harness.run_passes(ctx, recovered, inputs, 0.0, min_passes=1)  # warm-up, discarded
    buffer_before = (recovered.buffer.stats.hits, recovered.buffer.stats.misses)
    log, _ = harness.run_passes(ctx, recovered, inputs, (1.0 - WRITE_SHARE) * ctx.seconds)
    harness.query_end_to_end(ctx, log)
    if ctx.trace:
        harness.query_layer_metrics(ctx, log, buffer_before, recovered)
    ctx.notes["passes"] = log.passes
    recovered.close()


def _recovery_breakdown(ctx, state_dir: str, tail_reports: int, full_seconds: float) -> None:
    """Where recovery time goes: image load, WAL replay, audit."""
    m = ctx.metrics
    t0 = time.perf_counter()
    load_latest_checkpoint(state_dir)
    load_seconds = time.perf_counter() - t0
    copy = ctx.subdir("recover-noaudit")
    shutil.copytree(state_dir, copy)
    t0 = time.perf_counter()
    PDRServer.recover(copy, audit=False).close()
    unaudited = time.perf_counter() - t0
    m["reliability.recover_load_s"] = load_seconds
    # recover(audit=False) minus the image read: index rebuild + WAL replay
    m["reliability.recover_replay_reports_per_s"] = (
        tail_reports / max(unaudited - load_seconds, 1e-9)
    )
    m["reliability.recover_audit_s"] = max(full_seconds - unaudited, 0.0)
