"""``serve_mixed``: writes beside reads, over TCP.

The CH world is built in-process, saved with ``save_server`` and handed to
a ``python -m repro serve --snapshot`` child — the only process the
benchmark starts.  Two ``ResilientClient`` connections then run a closed
loop for the window: a writer sending ``advance`` + ``report_batch`` per
tick back to back, and a reader cycling a fixed list of ``l = 30`` queries,
alternating ``fr`` and ``pa`` (``max_regions = 8``, no deadline, so nothing
degrades silently).  The flush policy is the CLI's default (no fsync).
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from typing import List, Optional, Tuple

from bench import harness
from bench.stats import median, rate_median, tail
from bench.worlds import T0, road_inputs
from repro.core.errors import ServingError
from repro.serving.client import ClientConfig, ResilientClient
from repro.serving.protocol import LENGTH_PREFIX, decode_frame, encode_frame
from repro.storage.snapshot import save_server

BLOCKS = 10  # the window is cut into this many blocks
BOOT_TIMEOUT = 120.0
STOP_TIMEOUT = 30.0
VARRHOS = (2.0, 3.0, 4.0)
SLOWDOWN_SAMPLES = 5  # of the machine's speed, on each side of a drive


class ServeChild:
    """A ``repro serve`` child process mounted on a snapshot."""

    def __init__(self, ctx: harness.Context, snapshot: str, index: int) -> None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), TMPDIR=ctx.workdir)
        self._stderr = open(os.path.join(ctx.workdir, f"serve-{index}.err"), "wb")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--snapshot", snapshot,
             "--replicas", "0", "--port", "0", "--metrics-port", "0",
             "--state-dir", ctx.subdir(f"serve-state-{index}")],
            stdout=subprocess.PIPE, stderr=self._stderr, env=env, cwd=root,
        )
        try:
            ports = self._read_ports()
        except BaseException:
            self.stop()
            raise
        self.boot_seconds = time.perf_counter() - started
        self.port = ports["port"]
        self.metrics_port = ports["metrics-port"]

    def _read_ports(self) -> dict:
        ports = {}
        pending = b""
        deadline = time.monotonic() + BOOT_TIMEOUT
        fd = self.process.stdout.fileno()
        while len(ports) < 2:
            ready, _, _ = select.select([fd], [], [], max(deadline - time.monotonic(), 0.0))
            chunk = os.read(fd, 4096) if ready else b""
            if not chunk:
                raise RuntimeError("repro serve did not announce its ports; see serve-*.err")
            pending += chunk
            *lines, pending = pending.split(b"\n")
            for line in lines:
                key, _, value = line.decode().partition("=")
                if key in ("port", "metrics-port"):
                    ports[key] = int(value)
        return ports

    def scrape(self) -> dict:
        url = f"http://127.0.0.1:{self.metrics_port}/metrics.json"
        with urllib.request.urlopen(url, timeout=10) as response:
            return json.load(response)

    def peak_rss_mb(self) -> float:
        """High-water mark of this child alone (``RUSAGE_CHILDREN`` would be
        the largest of every child booted for the set-up median)."""
        with open(f"/proc/{self.process.pid}/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc/<pid>/status")

    def stop(self) -> int:
        """SIGTERM (serve drains and exits 0), then wait for the end."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._stderr.close()
        return self.process.returncode


class _Loop(threading.Thread):
    """One closed-loop client; samples are (end time, busy seconds, count)."""

    def __init__(self, ctx, port: int, trace_sample: int = 0) -> None:
        super().__init__(daemon=True)
        self.client = ResilientClient(
            [("127.0.0.1", port)],
            ClientConfig(seed=ctx.seed, trace_sample=trace_sample, trace_buffer=1 << 16),
        )
        self.stop_at = 0.0
        self.error: Optional[BaseException] = None
        self.attempted = 0
        self.failed = 0

    def run(self) -> None:
        try:
            while time.perf_counter() < self.stop_at:
                self.step()
        except BaseException as exc:  # surfaced by the main thread after join
            self.error = exc

    def call(self, fn, *args, **kwargs) -> Tuple[Optional[dict], float]:
        """One wire op; an error frame after retries is a failed op."""
        t0 = time.perf_counter()
        try:
            frame = fn(*args, **kwargs)
        except ServingError:
            frame = None
        return frame, time.perf_counter() - t0


class _Writer(_Loop):
    def __init__(self, ctx, port, inputs, first_tick: int) -> None:
        super().__init__(ctx, port)
        self.inputs = inputs
        self.tick = first_tick
        self.samples: List[Tuple[float, float, int]] = []

    def step(self) -> None:
        wave = self.inputs.wave(self.tick)  # generated outside the timed region
        advanced, a_seconds = self.call(self.client.advance, to=self.tick)
        acked, r_seconds = self.call(self.client.report_batch, wave)
        accepted = int(acked["accepted"]) if acked and advanced else 0
        self.attempted += len(wave)
        self.failed += len(wave) - accepted
        self.samples.append((time.perf_counter(), a_seconds + r_seconds, accepted))
        self.tick += 1


class _Reader(_Loop):
    def __init__(self, ctx, port, inputs, trace_sample: int = 0) -> None:
        super().__init__(ctx, port, trace_sample)
        offsets = [offset for _, _, offset in inputs.fr_queries]
        # Two of each in a row, not fr/pa in strict alternation: the writer
        # alternates a cheap advance with a costly wave, and a reader of the
        # same period locks in step with it, so that for seconds on end every
        # FR query waits behind a wave (or behind none).
        self.queries = [
            (method, varrho, offsets[(2 * i + j) % len(offsets)])
            for i, varrho in enumerate(VARRHOS)
            for method in ("fr", "pa")
            for j in range(2)
        ]
        self.sent = 0
        self.samples = {"fr": [], "pa": []}

    def step(self) -> None:
        method, varrho, offset = self.queries[self.sent % len(self.queries)]
        self.sent += 1
        frame, seconds = self.call(
            self.client.query, method, qt_offset=offset, l=30.0, varrho=varrho, max_regions=8
        )
        ok = frame is not None and not frame["degraded"] and frame["method"] == method
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.samples[method].append((time.perf_counter(), seconds, 1 if ok else 0))


def _blocks(samples, started: float, seconds: float) -> List[Tuple[int, float]]:
    """(count, busy seconds) per block of the window, by completion time."""
    width = seconds / BLOCKS
    out = [[0, 0.0] for _ in range(BLOCKS)]
    for end, busy, count in samples:
        block = out[min(int((end - started) / width), BLOCKS - 1)]
        block[0] += count
        block[1] += busy
    return [(count, busy) for count, busy in out]


def _drive(ctx, child: ServeChild, inputs, first_tick: int, seconds: float, trace_sample: int):
    writer = _Writer(ctx, child.port, inputs, first_tick)
    reader = _Reader(ctx, child.port, inputs, trace_sample)
    # The machine's speed is sampled right before and right after the load:
    # beside it, the kernel would measure the load's own use of both cores.
    # Ten samples are too few to rate fifteen seconds by, so the load's rates
    # are scaled by the median of every sample of the run.
    for _ in range(SLOWDOWN_SAMPLES):
        ctx.slowdown()
    started = time.perf_counter()
    for loop in (writer, reader):
        loop.stop_at = started + seconds
        loop.start()
    for loop in (writer, reader):
        loop.join(seconds + 120.0)
        if loop.is_alive() or loop.error is not None:
            raise RuntimeError(f"{type(loop).__name__} did not finish cleanly: {loop.error!r}")
        ctx.attempted += loop.attempted
        ctx.failed += loop.failed
    for _ in range(SLOWDOWN_SAMPLES):
        ctx.slowdown()
    return writer, reader, started, median(ctx.slowdowns) if ctx.slowdowns else 1.0


def run(ctx: harness.Context) -> None:
    slowdown = ctx.slowdown()
    inputs = road_inputs(ctx.scale["road"], ctx.seed)
    gen_seconds = inputs.gen_seconds / slowdown
    ctx.note_inputs(inputs)
    ctx.notes["flush_policy"] = "repro serve's default (no fsync)"
    m = ctx.metrics
    snapshot = os.path.join(ctx.workdir, "world.npz")

    # Set-up, as if the workload ran alone: build the world, save it, boot
    # the program on it.  Several times over; the last child serves the load.
    child = None
    builds, saves, boots = [], [], []
    try:
        for i in ctx.repeats():
            if child is not None:
                child.stop()
            slowdown = ctx.slowdown()
            world, seconds = harness.build_server(inputs)
            builds.append(seconds / slowdown)
            t0 = time.perf_counter()
            save_server(world, snapshot)
            saves.append((time.perf_counter() - t0) / slowdown)
            del world
            slowdown = ctx.slowdown()
            child = ServeChild(ctx, snapshot, i)
            boots.append(child.boot_seconds / slowdown)
        m["setup_s"] = gen_seconds + median(
            [sum(parts) for parts in zip(builds, saves, boots)])
        m["restart_s"] = median(boots)
        m["core.bulk_load_reports_per_s"] = inputs.n_objects / median(builds)
        m["storage.snapshot_save_s"] = median(saves)
        m["storage.snapshot_bytes_per_object"] = os.path.getsize(snapshot) / inputs.n_objects

        _drive(ctx, child, inputs, T0 + 1, min(1.0, ctx.seconds / 4), 0)  # warm-up, discarded
        first_tick = _tnow(child) + 1
        if ctx.trace:
            _, plain_reader, plain_started, _ = _drive(
                ctx, child, inputs, first_tick, ctx.seconds / 2, 0)
            before = child.scrape()
            writer, reader, started, slowdown = _drive(
                ctx, child, inputs, _tnow(child) + 1, ctx.seconds / 2, 1)
            seconds = ctx.seconds / 2
            _layer_metrics(ctx, child, inputs, writer, reader, before)
            m["telemetry.overhead_ratio"] = (
                rate_median(_blocks(reader.samples["fr"], started, seconds))
                / rate_median(_blocks(plain_reader.samples["fr"], plain_started, seconds))
            )
        else:
            writer, reader, started, slowdown = _drive(
                ctx, child, inputs, first_tick, ctx.seconds, 0)
            seconds = ctx.seconds
        m["reports_per_s"] = slowdown * rate_median(_blocks(writer.samples, started, seconds))
        m["fr_queries_per_s"] = slowdown * rate_median(
            _blocks(reader.samples["fr"], started, seconds))
        m["pa_queries_per_s"] = slowdown * rate_median(
            _blocks(reader.samples["pa"], started, seconds))
        ctx.notes["ticks"] = len(writer.samples)
        ctx.notes["queries"] = reader.sent
        _check(ctx, child, writer)
        m["peak_rss_mb"] = child.peak_rss_mb()
    finally:
        if child is not None:
            code = child.stop()
            ctx.checks.record("serve_drained_clean", code == 0, f"serve exited {code}")


def _tnow(child: ServeChild) -> int:
    with ResilientClient([("127.0.0.1", child.port)]) as client:
        return int(client.health()["tnow"])


def _check(ctx, child: ServeChild, writer: _Writer) -> None:
    with ResilientClient([("127.0.0.1", child.port)],
                         ClientConfig(request_timeout=120.0)) as client:
        lsn = int(client.health()["lsn"])
        ok = ctx.checks.record(
            "acked_lsn_within_wal", 0 < writer.client.max_acked_lsn <= lsn,
            f"max acked lsn {writer.client.max_acked_lsn} vs server lsn {lsn}",
        )
        ctx.op(ok)
        # the writer has stopped, so both answers see the same state
        exact = client.query("bruteforce", qt_offset=7, l=30.0, varrho=3.0, max_regions=0)
        fr = client.query("fr", qt_offset=7, l=30.0, varrho=3.0, max_regions=0)
        ok = ctx.checks.record(
            "wire_fr_equals_bruteforce",
            abs(fr["area"] - exact["area"]) <= 1e-6 * max(exact["area"], 1.0),
            f"FR area {fr['area']} vs brute-force area {exact['area']}",
        )
        ctx.op(ok)


def _histogram_totals(scrape: dict, family: str) -> Tuple[float, float]:
    for fam in scrape["families"]:
        if fam["name"] == family:
            return (sum(s.get("sum", 0.0) for s in fam["series"]),
                    sum(s.get("count", 0) for s in fam["series"]))
    return (0.0, 0.0)


def _layer_metrics(ctx, child, inputs, writer, reader, before: dict) -> None:
    ms = 1000.0
    m = ctx.metrics
    waves = [busy for _, busy, _ in writer.samples]
    queries = [busy for samples in reader.samples.values() for _, busy, _ in samples]
    m["serving.wave_ms_p50"] = ms * median(waves)
    m["serving.wave_ms_tail"] = ms * tail(waves)
    m["serving.wave_samples"] = len(waves)
    m["serving.query_ms_p50"] = ms * median(queries)
    m["serving.query_ms_tail"] = ms * tail(queries)
    m["serving.query_samples"] = len(queries)
    for loop in (writer, reader):
        m["serving.retries"] = m.get("serving.retries", 0) + loop.client.stats["retries"]
        m["serving.sheds"] = m.get("serving.sheds", 0) + loop.client.stats["error_shed"]

    # the stitched traces: client span, with the server's dispatch span under it
    dispatch, residual = [], []
    for trace in reader.client.traces:
        if trace["attrs"]["op"] == "query" and trace["children"]:
            served = trace["children"][0]["duration_seconds"]
            dispatch.append(served)
            residual.append(trace["duration_seconds"] - served)
    m["serving.dispatch_ms_p50"] = ms * median(dispatch)
    # admission + RW-lock wait + reader-pool queue + codec + socket, as one
    m["serving.query_residual_ms_p50"] = ms * median(residual)

    after = child.scrape()
    n_waves = max(len(waves), 1)
    append = [a - b for a, b in zip(_histogram_totals(after, "repro_wal_append_seconds"),
                                    _histogram_totals(before, "repro_wal_append_seconds"))]
    fsync = [a - b for a, b in zip(_histogram_totals(after, "repro_wal_fsync_seconds"),
                                   _histogram_totals(before, "repro_wal_fsync_seconds"))]
    # a tick appends twice: the advance record, then the wave's group commit
    m["reliability.wal_append_ms_per_wave"] = ms * append[0] / n_waves
    m["reliability.wal_fsyncs_per_wave"] = fsync[1] / n_waves

    wave = max((inputs.wave(t) for t in range(T0 + 1, T0 + 41)), key=len)
    wave_frame = {"op": "report_batch", "id": 1, "reports": [list(r) for r in wave]}
    answer_frame = {
        "ok": True, "id": 1, "method": "fr", "requested_method": "fr", "degraded": False,
        "served_by": None, "qt": 77, "n_regions": 8, "area": 1234.5, "cpu_seconds": 0.01,
        "regions": [[10.5 * i, 20.25 * i, 10.5 * i + 15.0, 20.25 * i + 15.0] for i in range(8)],
    }
    m["serving.codec_ms_per_wave_frame"] = ms * _codec_seconds(wave_frame)
    m["serving.codec_ms_per_answer_frame"] = ms * _codec_seconds(answer_frame)


def _codec_seconds(message: dict, repeats: int = 200) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        frame = encode_frame(message)
        decode_frame(frame[LENGTH_PREFIX.size:])
        samples.append(time.perf_counter() - t0)
    return median(samples)
