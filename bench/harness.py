"""What the four workloads share: the run context, world building, the
tick and query-pass loops, and the per-layer read-outs of a query log."""

from __future__ import annotations

import os
import platform
import shutil
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from bench.checks import Checks
from bench.stats import median, rate_median, tail
from bench.trace import SpanRecorder
from bench.worlds import T0, Inputs
from repro.core.system import PDRServer
from repro.reliability.validation import ReliabilityConfig

__all__ = ["Context", "QueryLog", "build_server", "run_ticks", "query_pass",
           "instrument_writes", "write_layer_metrics", "machine_info", "SCALES"]

# Objects per world.  The paper's smallest dataset is CH10K; there one run
# with its repeated set-ups, a warm-up pass and repeated restarts takes over
# a minute on this class of machine, and the driver's cap is 92 runs in
# 3420 s.  So the road world is CH2K — the issue's instruction is to shrink
# n, not the passes.  "smoke" is the self-test's scale; its numbers are not
# comparable.
SCALES = {
    "full": {"road": 2000, "uniform": 1000, "repeats": 5},
    "smoke": {"road": 300, "uniform": 300, "repeats": 1},
}
REPEAT_SECONDS = 2.5

# The machine-speed kernel: many small numpy calls, which is what the
# program's own time is made of.  On the box the first baseline was measured
# on, at its usual speed, KERNEL_ROUNDS rounds take REFERENCE_SECONDS.
KERNEL_ROUNDS = 750
REFERENCE_SECONDS = 0.0102
SLOWDOWN_WINDOW = 5
_KERNEL_MATRIX = np.random.default_rng(0).normal(size=(64, 36))
_KERNEL_SORTED = np.sort(np.random.default_rng(1).normal(size=512))
TICKS_PER_BLOCK = 5
FR_STAGES = ("filter", "fuse", "fetch", "sweep", "merge")


class Context:
    """One benchmark run: arguments in, metrics, op counts and checks out."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 scale: str, workdir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scale = SCALES[scale]
        self.workdir = workdir
        self.checks = Checks()
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, float] = {}
        self.notes: Dict[str, object] = {}
        self.recorder: Optional[SpanRecorder] = None
        self.slowdowns: List[float] = []

    def slowdown(self) -> float:
        """How many times slower than the reference machine this one runs
        right now: the kernel's time over ``REFERENCE_SECONDS``.

        The boxes this runs on change speed by up to 2x for seconds or
        minutes at a time (neighbours on the host; CPU time tracks wall
        time).  Every end-to-end time is therefore divided by the slowdown
        sampled right before it, and reads in seconds of the reference
        machine.  The traced run reports per-layer times only, which stay
        as measured, so it samples nothing."""
        if self.trace:
            return 1.0
        t0 = time.perf_counter()
        for _ in range(KERNEL_ROUNDS):
            (_KERNEL_MATRIX @ _KERNEL_MATRIX.T).sum()
            np.searchsorted(_KERNEL_SORTED, 0.3)
        self.slowdowns.append((time.perf_counter() - t0) / REFERENCE_SECONDS)
        # one sample is itself noisy; the last few cover the last second or so
        return median(self.slowdowns[-SLOWDOWN_WINDOW:])

    def repeats(self):
        """Sample numbers for a set-up or a restart that is done several
        times over for a steady median: at least the scale's count, and for
        at least ``REPEAT_SECONDS``, so that a short operation is sampled more
        often.  The traced run reports neither time and does each once."""
        count, seconds = (1, 0.0) if self.trace else (self.scale["repeats"], REPEAT_SECONDS)
        started = time.perf_counter()
        i = 0
        while i < count or time.perf_counter() - started < seconds:
            yield i
            i += 1

    def subdir(self, name: str) -> str:
        path = os.path.join(self.workdir, name)
        shutil.rmtree(path, ignore_errors=True)
        return path

    def op(self, ok: bool, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count

    def note_inputs(self, inputs: Inputs) -> None:
        self.notes["inputs_sha256"] = inputs.digest
        self.notes["n_objects"] = inputs.n_objects
        self.metrics["datagen.trace_gen_s"] = inputs.gen_seconds
        self.metrics["datagen.reports_per_tick_p50"] = median(inputs.reports_per_tick())


def machine_info() -> dict:
    """Noise hygiene recorded with every result."""
    load1 = os.getloadavg()[0]
    nproc = os.cpu_count() or 1
    rng = np.random.default_rng(0)
    a = rng.normal(size=65536)
    t0 = time.perf_counter()
    iters = 0
    while time.perf_counter() - t0 < 0.2:  # perf_gate.calibrate()'s workload
        np.sort(np.cumsum(a) * 1.0001)
        iters += 1
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "load1_at_start": load1,
        "load_warning": load1 > nproc,
        "calibration_iters_per_s": iters / (time.perf_counter() - t0),
        "gc": "defaults",
        "first_pass": "discarded",
    }


# ----------------------------------------------------------------------
# write side
# ----------------------------------------------------------------------
def build_server(inputs: Inputs, state_dir: Optional[str] = None) -> Tuple[PDRServer, float]:
    """An empty server at tick T0 bulk-loaded with the world's state.

    Returns the server and the seconds the bulk load took.  With
    ``state_dir`` the server is durable and fsyncs every wave.
    """
    reliability = (
        ReliabilityConfig(state_dir=state_dir, fsync=True) if state_dir else None
    )
    t0 = time.perf_counter()
    server = PDRServer(
        inputs.config, expected_objects=inputs.n_objects, tnow=T0, reliability=reliability
    )
    accepted = server.report_batch(inputs.state)
    seconds = time.perf_counter() - t0
    if any(motion is None for motion in accepted):
        raise RuntimeError("the generated world state holds a report the server rejects")
    return server, seconds


def run_ticks(ctx: Context, server: PDRServer, inputs: Inputs, ticks: int) -> Tuple[int, float]:
    """``ticks`` ticks of advance + wave; returns (reports, busy seconds)."""
    reports = 0
    busy = 0.0
    slowdown = ctx.slowdown()
    for _ in range(ticks):
        tick = server.tnow + 1
        wave = inputs.wave(tick)  # generated outside the timed region
        t0 = time.perf_counter()
        server.advance_to(tick)
        results = server.report_batch(wave)
        busy += time.perf_counter() - t0
        rejected = sum(1 for motion in results if motion is None)
        ctx.op(True, len(wave) - rejected)
        ctx.op(False, rejected)
        reports += len(wave) - rejected
    return reports, busy / slowdown


def instrument_writes(recorder: SpanRecorder, server: PDRServer) -> None:
    """Timing proxies around the write path's layer boundaries."""
    recorder.wrap(server, "report_batch", "wave")
    recorder.wrap(server, "advance_to", "advance")
    if server._manager is not None:
        recorder.wrap(server._manager, "log_report_batch", "wal")
    recorder.wrap(server.table, "report_batch", "dispatch")
    recorder.wrap(server.histogram, "on_report_batch", "dh")
    recorder.wrap(server.pa, "on_report_batch", "pa")
    recorder.wrap(server.tree, "on_report_batch", "tpr")


def write_layer_metrics(ctx: Context, recorder: SpanRecorder) -> None:
    """Per-wave self times of the write path, from the recorded spans."""
    ms = 1000.0
    m = ctx.metrics
    m["core.validate_self_ms_per_wave"] = ms * median(recorder.self_times("wave"))
    m["reliability.wal_append_ms_per_wave"] = ms * median(recorder.durations("wal"))
    m["motion.dispatch_self_ms_per_wave"] = ms * median(recorder.self_times("dispatch"))
    m["motion.advance_ms_per_tick"] = ms * median(recorder.durations("advance"))
    m["histogram.scatter_ms_per_wave"] = ms * median(recorder.durations("dh"))
    m["chebyshev.delta_ms_per_wave"] = ms * median(recorder.durations("pa"))
    m["index.update_ms_per_wave"] = ms * median(recorder.durations("tpr"))
    wave_total = recorder.total("wave")
    if wave_total > 0:
        m["chebyshev.delta_share_of_wave"] = recorder.total("pa") / wave_total
        leaves = sum(recorder.total(n) for n in ("wal", "dh", "pa", "tpr"))
        selfs = sum(recorder.self_times("wave")) + sum(recorder.self_times("dispatch"))
        ctx.notes["wave_span_coverage"] = (leaves + selfs) / wave_total


# ----------------------------------------------------------------------
# read side
# ----------------------------------------------------------------------
class QueryLog:
    """Blocks and per-query samples of a sequence of query passes."""

    def __init__(self) -> None:
        self.tick_blocks: List[Tuple[int, float]] = []
        self.fr_blocks: List[Tuple[int, float]] = []
        self.pa_blocks: List[Tuple[int, float]] = []
        # (wall seconds, QueryStats, rectangles in the answer)
        self.fr: List[tuple] = []
        self.pa: List[tuple] = []
        self.cold_over_warm: List[float] = []

    @property
    def passes(self) -> int:
        return len(self.fr_blocks)


def _timed_query(ctx: Context, server, method: str, query, span: str):
    l, varrho, offset = query
    recorder = ctx.recorder
    index = recorder.open(span) if recorder is not None else None
    t0 = time.perf_counter()
    result = server.query(method, qt=server.tnow + offset, l=l, varrho=varrho)
    wall = time.perf_counter() - t0
    if index is not None:
        recorder.close(index)
        start = t0
        for stage in FR_STAGES:  # the program's own stage times become child spans
            seconds = result.stats.extra.get(f"{stage}_seconds")
            if seconds is not None:
                recorder.add_child(index, stage, start, seconds)
                start += seconds
    ctx.op(not result.degraded and result.stats.method == method)
    return wall, result


def query_pass(ctx: Context, server: PDRServer, inputs: Inputs, log: QueryLog):
    """One pass: a block of ticks, then the FR list, then the PA list.

    The ticks bump the tree's and the histogram's epochs, so no pass
    inherits the previous one's prefix sums or band cache: every pass
    starts as cold as a query after an update does in production.
    Returns the pass's FR results (for the correctness checks).
    """
    log.tick_blocks.append(run_ticks(ctx, server, inputs, TICKS_PER_BLOCK))
    fr_results = []
    walls = []
    slowdown = ctx.slowdown()
    for query in inputs.fr_queries:
        wall, result = _timed_query(ctx, server, "fr", query, "fr_query")
        log.fr.append((wall, result.stats, len(result.regions)))
        walls.append(wall)
        fr_results.append(result)
    log.fr_blocks.append((len(walls), sum(walls) / slowdown))
    log.cold_over_warm.append(walls[0] / median(walls[1:]))
    walls = []
    slowdown = ctx.slowdown()
    for query in inputs.pa_queries:
        wall, result = _timed_query(ctx, server, "pa", query, "pa_query")
        log.pa.append((wall, result.stats, len(result.regions)))
        walls.append(wall)
    log.pa_blocks.append((len(walls), sum(walls) / slowdown))
    return fr_results


def query_end_to_end(ctx: Context, log: QueryLog) -> None:
    ctx.metrics["fr_queries_per_s"] = rate_median(log.fr_blocks)
    ctx.metrics["pa_queries_per_s"] = rate_median(log.pa_blocks)


def query_layer_metrics(ctx: Context, log: QueryLog, buffer_before, server) -> None:
    """Per-layer read-outs of the read path, from ``QueryResult.stats``."""
    ms = 1000.0
    m = ctx.metrics
    fr_wall = [w for w, _, _ in log.fr]
    fr_stats = [s for _, s, _ in log.fr]

    def stage(name: str) -> List[float]:
        return [s.extra.get(f"{name}_seconds", 0.0) for s in fr_stats]

    def extra_sum(key: str) -> float:
        return sum(s.extra.get(key, 0.0) for s in fr_stats)

    m["histogram.filter_ms_p50"] = ms * median(stage("filter"))
    lookups = extra_sum("cache_hits") + extra_sum("cache_misses")
    m["histogram.prefix_cache_hit_ratio"] = extra_sum("cache_hits") / lookups if lookups else 0.0
    m["histogram.candidate_cells_per_query"] = median([s.candidate_cells for s in fr_stats])
    m["methods.fuse_ms_p50"] = ms * median(stage("fuse"))
    m["methods.fr_self_ms_p50"] = ms * median([
        w - sum(s.extra.get(f"{n}_seconds", 0.0) for n in FR_STAGES)
        for w, s in zip(fr_wall, fr_stats)
    ])
    m["methods.fr_query_ms_p50"] = ms * median(fr_wall)
    m["methods.fr_query_ms_tail"] = ms * tail(fr_wall)
    m["methods.fr_query_samples"] = len(fr_wall)
    m["methods.fr_cold_over_warm"] = median(log.cold_over_warm)
    m["index.fetch_ms_p50"] = ms * median(stage("fetch"))
    m["index.objects_fetched_per_query"] = median([s.objects_examined for s in fr_stats])
    m["storage.buffer_io_per_query"] = median([s.io_count for s in fr_stats])
    hits = server.buffer.stats.hits - buffer_before[0]
    misses = server.buffer.stats.misses - buffer_before[1]
    m["storage.buffer_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["sweep.sweep_ms_p50"] = ms * median(stage("sweep"))
    m["sweep.share_of_fr"] = sum(stage("sweep")) / sum(fr_wall) if fr_wall else 0.0
    m["sweep.bands_per_query"] = median([s.extra.get("refine_bands", 0.0) for s in fr_stats])
    bands = extra_sum("refine_bands") + extra_sum("refine_bands_skipped")
    m["sweep.bands_skipped_ratio"] = extra_sum("refine_bands_skipped") / bands if bands else 0.0
    m["sweep.segments_per_query"] = median([s.extra.get("refine_segments", 0.0) for s in fr_stats])
    m["core.merge_ms_p50"] = ms * median(stage("merge"))
    m["core.rects_per_answer"] = median([n for _, _, n in log.fr])

    pa_wall = [w for w, _, _ in log.pa]
    pa_stats = [s for _, s, _ in log.pa]
    m["methods.pa_query_ms_p50"] = ms * median(pa_wall)
    m["methods.pa_query_ms_tail"] = ms * tail(pa_wall)
    m["methods.pa_query_samples"] = len(pa_wall)
    m["chebyshev.bnb_ms_p50"] = ms * median(pa_wall)
    m["chebyshev.bnb_nodes_per_query"] = median([s.bnb_nodes for s in pa_stats])
    nodes = sum(s.bnb_nodes for s in pa_stats)
    leaves = sum(s.extra.get("bnb_leaves", 0.0) for s in pa_stats)
    m["chebyshev.bnb_leaf_ratio"] = leaves / nodes if nodes else 0.0
    if ctx.recorder is not None and ctx.recorder.total("fr_query") > 0:
        covered = sum(ctx.recorder.total(n) for n in FR_STAGES)
        selfs = sum(ctx.recorder.self_times("fr_query"))
        ctx.notes["fr_span_coverage"] = (covered + selfs) / ctx.recorder.total("fr_query")


def run_passes(ctx: Context, server: PDRServer, inputs: Inputs, seconds: float,
               min_passes: int = 2) -> Tuple[QueryLog, list]:
    """Query passes for ``seconds`` (at least ``min_passes``); returns the
    log and the last pass's FR results."""
    log = QueryLog()
    deadline = time.perf_counter() + seconds
    fr_results = []
    while log.passes < min_passes or time.perf_counter() < deadline:
        fr_results = query_pass(ctx, server, inputs, log)
    return log, fr_results
