"""``query_snapshot`` and ``query_sparse``: the read path in-process.

One caller, closed loop.  Both run the same pass structure (see
:func:`bench.harness.query_pass`) and differ only in the world: CH road
traffic, where sweep and fetch do the work, versus a thousand uniform
objects, where almost every band is empty and FR time is fixed overhead.
"""

from __future__ import annotations

import os
import time

from bench import harness
from bench.checks import point_oracle_mismatches, same_region
from bench.stats import median, rate_median
from bench.trace import SpanRecorder
from bench.worlds import road_inputs, uniform_inputs
from repro.metrics.raster import RasterMeasure
from repro.storage.snapshot import load_server, save_server

ORACLE_POINTS = 2000
ORACLE_QUERIES = 3  # FR answers of the last pass checked against the point oracle
ACCURACY_QUERIES = 6


def run(ctx: harness.Context) -> None:
    sparse = ctx.workload == "query_sparse"
    slowdown = ctx.slowdown()
    if sparse:
        inputs = uniform_inputs(ctx.scale["uniform"], ctx.seed)
    else:
        inputs = road_inputs(ctx.scale["road"], ctx.seed)
    ctx.note_inputs(inputs)
    gen_seconds = inputs.gen_seconds / slowdown
    ctx.notes["flush_policy"] = "none (in-memory server)"

    # Set-up: bulk-load the world, several times over for a steady median.
    setups = []
    for _ in ctx.repeats():
        server = None  # drop the previous build before the next one
        slowdown = ctx.slowdown()
        server, seconds = harness.build_server(inputs)
        setups.append(seconds / slowdown)
    ctx.metrics["setup_s"] = gen_seconds + median(setups)
    ctx.metrics["core.bulk_load_reports_per_s"] = inputs.n_objects / median(setups)

    harness.run_passes(ctx, server, inputs, 0.0, min_passes=1)  # warm-up, discarded

    if ctx.trace:
        plain, _ = harness.run_passes(ctx, server, inputs, ctx.seconds / 2)
        ctx.recorder = SpanRecorder()
        harness.instrument_writes(ctx.recorder, server)
        buffer_before = (server.buffer.stats.hits, server.buffer.stats.misses)
        log, fr_results = harness.run_passes(ctx, server, inputs, ctx.seconds / 2)
        ctx.recorder.unwrap_all()
        harness.write_layer_metrics(ctx, ctx.recorder)
        harness.query_layer_metrics(ctx, log, buffer_before, server)
        ctx.metrics["telemetry.overhead_ratio"] = (
            rate_median(log.fr_blocks) / rate_median(plain.fr_blocks)
        )
    else:
        log, fr_results = harness.run_passes(ctx, server, inputs, ctx.seconds)
    harness.query_end_to_end(ctx, log)
    ctx.metrics["reports_per_s"] = rate_median(log.tick_blocks)
    ctx.notes["passes"] = log.passes

    # Correctness: the last pass's answers were computed on the current state.
    for result in fr_results[:ORACLE_QUERIES]:
        wrong = point_oracle_mismatches(server, result, ORACLE_POINTS, ctx.seed)
        ok = ctx.checks.record(
            "fr_point_oracle", wrong == 0,
            f"l={result.query.l} rho={result.query.rho:.6f} qt={result.query.qt}: "
            f"{wrong} of {ORACLE_POINTS} probe points misclassified",
        )
        ctx.op(ok)
    if sparse:
        # the full-plane sweep is affordable only on the small world
        exact = server.evaluate("bruteforce", fr_results[0].query)
        ok = ctx.checks.record(
            "fr_equals_bruteforce", same_region(fr_results[0], exact),
            f"FR {fr_results[0].area():.3f} vs brute force {exact.area():.3f}",
        )
        ctx.op(ok)

    if ctx.trace:
        _pa_accuracy(ctx, server, inputs)

    # Restart: the persisted form of this server is a snapshot file.
    path = os.path.join(ctx.workdir, "world.npz")
    t0 = time.perf_counter()
    save_server(server, path)
    save_seconds = time.perf_counter() - t0
    loads = []
    for _ in ctx.repeats():
        restored = None
        slowdown = ctx.slowdown()
        t0 = time.perf_counter()
        restored = load_server(path)
        loads.append((time.perf_counter() - t0) / slowdown)
    ctx.metrics["restart_s"] = median(loads)
    ctx.metrics["storage.snapshot_save_s"] = save_seconds
    ctx.metrics["storage.snapshot_load_s"] = median(loads)
    ctx.metrics["storage.snapshot_bytes_per_object"] = os.path.getsize(path) / inputs.n_objects
    l, varrho, offset = inputs.fr_queries[0]
    probe = dict(qt=server.tnow + offset, l=l, varrho=varrho)
    ok = ctx.checks.record(
        "restored_equals_live",
        restored.tnow == server.tnow
        and restored.object_count() == server.object_count()
        and same_region(restored.query("fr", **probe), server.query("fr", **probe)),
        "snapshot round trip changed tnow, the object count or an FR answer",
    )
    ctx.op(ok)


def _pa_accuracy(ctx: harness.Context, server, inputs) -> None:
    """PA against FR on the paper's Figure 8 ratios, so that a faster PA
    cannot be bought with accuracy."""
    raster = RasterMeasure(server.config.domain)
    r_fp, r_fn = [], []
    for l, varrho, offset in inputs.pa_queries[:ACCURACY_QUERIES]:
        qt = server.tnow + offset
        exact = server.query("fr", qt=qt, l=l, varrho=varrho)
        approx = server.query("pa", qt=qt, l=l, varrho=varrho)
        report = raster.accuracy(exact.regions, approx.regions)
        if exact.area() > 0:
            r_fp.append(report.r_fp)
            r_fn.append(report.r_fn)
    ctx.metrics["metrics.pa_r_fp"] = median(r_fp)
    ctx.metrics["metrics.pa_r_fn"] = median(r_fn)
