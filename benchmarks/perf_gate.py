"""Regression-gated performance benchmark for the fast paths.

Measures the batch execution engine against its per-object / reference
twins and emits a ``BENCH_pr9.json`` trajectory file:

* **batch ingest** — ``PDRServer.report_batch`` of the whole load vs one
  ``PDRServer.report`` per object, both in-memory and on a durable (WAL +
  fsync) server, in reports/second.  There is one write path — ``report``
  is a one-row wave — so the ``ingest_seq_*`` arms and the
  ``ingest_speedup_*`` ratios compare that path at two wave sizes (1 and
  n), i.e. what batching amortises, not two implementations;
* **FR / PA queries** — snapshot query throughput on the populated
  server.  The calibration-normalized scalars (``fr_query_per_cal``,
  ``pa_query_per_cal``) are **gated**: query throughput per unit of
  machine speed must not regress, the same transferability argument the
  speedup ratios rest on;
* **serving SLO** — a short self-hosted TCP load test.  Its p50/p95/p99
  latencies per operation class are **gated** as calibration-normalized
  speeds (``slo_<kind>_<pct>_speed_per_cal`` = ``(1000/ms)/cal``): wire
  latency per unit of machine speed must not collapse.  The wide 60%
  headroom absorbs shared-runner noise; the regression the gate exists
  to catch is a protocol- or serialization-level slowdown, which costs
  integer multiples;
* **cached vs cold filter** — ``DensityHistogram.prefix_sums`` with a warm
  timestamp-keyed cache vs a cold (invalidated) one, recorded but not
  gated: their ratio falls whenever the cold path gets faster, and the
  cache itself is pinned by ``tests/test_perf_paths.py``;
* **telemetry overhead** — the same ingest+query workload with the
  telemetry layer enabled vs disabled.  This one is gated by an
  *absolute* floor: enabled throughput must stay within 10% of disabled
  (ratio >= 0.90), the observability layer's cheap-by-default contract.

The regression gate compares **speedup ratios** (batch vs sequential)
and calibration-normalised throughput against a checked-in baseline and
fails on a >25% drop.  Ratios, unlike raw ops/sec, transfer across
machines: both sides of each ratio run on the same hardware in the same
process.  Raw ops/sec are still recorded — normalized by a fixed numpy
calibration workload — so the trajectory file stays comparable over time.

Usage::

    PYTHONPATH=src python benchmarks/perf_gate.py                 # full run
    PYTHONPATH=src python benchmarks/perf_gate.py --mode smoke    # CI-sized
    PYTHONPATH=src python benchmarks/perf_gate.py --write-baseline

Exit status is non-zero when any gated ratio regresses by more than the
tolerance (disable with ``--no-gate``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

import numpy as np

from repro.core.config import SystemConfig
from repro.core.geometry import Rect
from repro.core.system import PDRServer
from repro.histogram.density_histogram import DensityHistogram
from repro.motion.table import ObjectTable
from repro.reliability.recovery import ReliabilityConfig

GATED_RATIOS = (
    "ingest_speedup_memory",
    "fr_query_per_cal",
    "pa_query_per_cal",
    "slo_report_p50_speed_per_cal",
    "slo_report_p95_speed_per_cal",
    "slo_report_p99_speed_per_cal",
    "slo_query_p50_speed_per_cal",
    "slo_query_p95_speed_per_cal",
    "slo_query_p99_speed_per_cal",
)
TOLERANCE = 0.25
# Per-key headroom where the default 25% would trip on run-to-run noise
# rather than a real regression.  Calibration-normalized absolutes
# (query throughput per unit of machine speed) carry cross-run noise the
# same-process speedup ratios cancel out.
KEY_TOLERANCE = {
    # Tightened from the original 0.45 when band-fused refinement landed:
    # the vectorized pipeline both raised throughput ~10x and cut
    # run-to-run variance (fewer, larger numpy calls), so the post-fusion
    # win cannot erode silently behind a wide floor.
    "fr_query_per_cal": 0.30,
    "pa_query_per_cal": 0.30,
    "ingest_speedup_memory": 0.40,
    # Wire percentiles on a loopback socket under a shared CI box swing
    # hard with scheduler jitter; the catastrophic slowdowns the gate is
    # for (a serialization or protocol regression) cost 2-10x.
    "slo_report_p50_speed_per_cal": 0.60,
    "slo_report_p95_speed_per_cal": 0.60,
    "slo_report_p99_speed_per_cal": 0.60,
    "slo_query_p50_speed_per_cal": 0.60,
    "slo_query_p95_speed_per_cal": 0.60,
    "slo_query_p99_speed_per_cal": 0.60,
}
# Keys that are absolutes over a fixed workload (not same-process
# ratios): they only compare against a baseline recorded in the SAME
# mode — a full-mode run against the smoke baseline skips them.
MODE_BOUND_KEYS = frozenset({
    "fr_query_per_cal",
    "pa_query_per_cal",
    # loadtest duration and per-mode load differ, so the latency
    # absolutes only compare within one mode, like the query absolutes
    "slo_report_p50_speed_per_cal",
    "slo_report_p95_speed_per_cal",
    "slo_report_p99_speed_per_cal",
    "slo_query_p50_speed_per_cal",
    "slo_query_p95_speed_per_cal",
    "slo_query_p99_speed_per_cal",
})
# Absolute floor for telemetry_overhead_ratio (enabled / disabled
# throughput).  The measured overhead is ~0% and a real regression
# (instrumentation left in a hot loop) costs 10%+, but single-rep noise
# on virtualized runners is ±4-5% even with the interleaved estimator,
# so the tripwire sits at 10% rather than 5%.
TELEMETRY_FLOOR = 0.90

MODES = {
    # n_objects, n_queries, ingest reps
    "full": dict(n=1000, queries=40, reps=3),
    "smoke": dict(n=250, queries=10, reps=2),
}


def _best_of(fn, reps):
    """Best-of-N wall time; best-of filters scheduler noise, not variance."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def calibrate() -> float:
    """Machine-speed proxy: iterations/sec of a fixed numpy workload."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=65536)
    t0 = time.perf_counter()
    iters = 0
    while time.perf_counter() - t0 < 0.2:
        np.sort(np.cumsum(a) * 1.0001)
        iters += 1
    return iters / (time.perf_counter() - t0)


def make_reports(n, seed=7):
    rng = np.random.default_rng(seed)
    return [
        (
            i,
            float(rng.uniform(0.0, 1000.0)),
            float(rng.uniform(0.0, 1000.0)),
            float(rng.uniform(-2.0, 2.0)),
            float(rng.uniform(-2.0, 2.0)),
        )
        for i in range(n)
    ]


def bench_ingest(reports, reps, durable):
    def make_server(tmp=None):
        if tmp is None:
            return PDRServer(SystemConfig())
        rc = ReliabilityConfig(state_dir=os.path.join(tmp, "state"))
        return PDRServer(SystemConfig(), reliability=rc)

    def run(batch):
        tmp = tempfile.mkdtemp() if durable else None
        try:
            server = make_server(tmp)
            t0 = time.perf_counter()
            if batch:
                server.report_batch(reports)
            else:
                for report in reports:
                    server.report(*report)
            return time.perf_counter() - t0
        finally:
            if tmp is not None:
                shutil.rmtree(tmp, ignore_errors=True)

    run(True)  # warm numpy/jit-free caches outside the timed region
    seq = min(run(False) for _ in range(reps))
    bat = min(run(True) for _ in range(reps))
    return len(reports) / seq, len(reports) / bat


def bench_queries(reports, n_queries):
    server = PDRServer(SystemConfig())
    server.report_batch(reports)
    horizon = server.config.prediction_window

    def fr():
        for q in range(n_queries):
            server.query("fr", qt=q % (horizon + 1), l=30.0, varrho=2.0)

    def pa():
        for q in range(n_queries):
            server.query("pa", qt=q % (horizon + 1), l=30.0, varrho=2.0)

    fr()
    pa()
    t_fr = _best_of(fr, 3) / n_queries
    t_pa = _best_of(pa, 3) / n_queries
    return 1.0 / t_fr, 1.0 / t_pa


def bench_filter_cache(n):
    rng = np.random.default_rng(11)
    hist = DensityHistogram(Rect(0.0, 0.0, 1000.0, 1000.0), m=200, horizon=120)
    table = ObjectTable()
    table.add_listener(hist)
    table.report_batch(
        [
            (
                i,
                float(rng.uniform(0.0, 1000.0)),
                float(rng.uniform(0.0, 1000.0)),
                float(rng.uniform(-2.0, 2.0)),
                float(rng.uniform(-2.0, 2.0)),
            )
            for i in range(n)
        ]
    )
    qts = list(range(0, 60, 6))

    def cold():
        for qt in qts:
            hist._epoch += 1  # simulate an intervening update wave
            hist.prefix_sums(qt)

    def warm():
        for qt in qts:
            hist.prefix_sums(qt)

    cold()
    warm()
    t_cold = _best_of(cold, 3) / len(qts)
    t_warm = _best_of(warm, 3) / len(qts)
    return 1.0 / t_cold, 1.0 / t_warm


def bench_telemetry_overhead(reports, n_queries, reps):
    """Enabled-vs-disabled throughput of a mixed ingest+query workload."""
    from repro.telemetry import TELEMETRY

    units = len(reports) + n_queries

    def workload():
        server = PDRServer(SystemConfig())
        server.report_batch(reports)
        horizon = server.config.prediction_window
        for q in range(n_queries):
            server.query("fr", qt=q % (horizon + 1), l=30.0, varrho=2.0)

    was_enabled = TELEMETRY.enabled
    try:
        # Interleave the enabled/disabled timings rep by rep: measuring
        # one whole arm and then the other lets machine-speed drift
        # between the halves masquerade as telemetry overhead, which is
        # exactly what an absolute-floor gate cannot afford.
        TELEMETRY.enable()
        workload()  # warm caches with instrumentation live
        TELEMETRY.disable()
        workload()
        t_enabled = float("inf")
        t_disabled = float("inf")
        for _ in range(reps):
            TELEMETRY.enable()
            t_enabled = min(t_enabled, _best_of(workload, 1))
            TELEMETRY.disable()
            t_disabled = min(t_disabled, _best_of(workload, 1))
    finally:
        (TELEMETRY.enable if was_enabled else TELEMETRY.disable)()
        TELEMETRY.reset()
    return units / t_enabled, units / t_disabled


def bench_serving_slo(mode):
    """Short self-hosted TCP load test; returns the percentile export.

    Uses the loadtest harness's own group builder and a small closed-loop
    scenario — enough traffic for stable p50/p95, short enough for CI.
    """
    from repro.serving.loadtest import (
        LoadTestConfig,
        build_serving_group,
        run_loadtest,
    )
    from repro.serving.server import ServerThread, ServingConfig

    duration = 4.0 if mode == "full" else 2.0
    tmp = tempfile.mkdtemp(prefix="perf-slo-")
    group = build_serving_group(
        os.path.join(tmp, "state"), objects=96, replicas=1, seed=7
    )
    thread = ServerThread(group, ServingConfig(host="127.0.0.1", port=0))
    try:
        thread.start()
        result = run_loadtest(
            [thread.address],
            LoadTestConfig(
                mix="report-heavy", mode="closed",
                duration=duration, concurrency=2, seed=7,
            ),
        )
        full = result.to_dict()
        return {
            "mix": full["mix"],
            "mode": full["mode"],
            "duration_seconds": duration,
            "ops": full["ops"],
            "throughput_ops_per_sec": full["throughput_ops_per_sec"],
            "failure_ratio": full["failure_ratio"],
            "latency_ms": full["latency_ms"],
            "slo": full["slo"],
            "ok": full["ok"],
        }
    finally:
        thread.stop()
        group.close()
        shutil.rmtree(tmp, ignore_errors=True)


def run_suite(mode):
    params = MODES[mode]
    reports = make_reports(params["n"])
    cal = calibrate()

    seq_mem, bat_mem = bench_ingest(reports, params["reps"], durable=False)
    seq_dur, bat_dur = bench_ingest(reports, params["reps"], durable=True)
    fr_ops, pa_ops = bench_queries(reports, params["queries"])
    cold_ops, warm_ops = bench_filter_cache(params["n"])
    tel_on_ops, tel_off_ops = bench_telemetry_overhead(
        reports, params["queries"], max(5, params["reps"])
    )
    serving_slo = bench_serving_slo(mode)

    def entry(ops):
        return {"ops_per_sec": round(ops, 2), "normalized": round(ops / cal, 6)}

    # latency percentiles gate as higher-is-better speeds so one floor
    # rule (current >= baseline * (1 - tolerance)) covers every key
    slo_speeds = {}
    for kind, pcts in serving_slo["latency_ms"].items():
        for pct in ("p50", "p95", "p99"):
            ms = pcts.get(pct)
            if ms:
                slo_speeds[f"slo_{kind}_{pct}_speed_per_cal"] = round(
                    (1000.0 / ms) / cal, 6
                )

    return {
        "bench": "pr9_perf_gate",
        "mode": mode,
        "profile": {
            "n_objects": params["n"],
            "domain": "1000x1000 paper defaults",
            "durable": "WAL group-commit, fsync on",
        },
        "calibration_ops_per_sec": round(cal, 2),
        "metrics": {
            "ingest_seq_memory": entry(seq_mem),
            "ingest_batch_memory": entry(bat_mem),
            "ingest_speedup_memory": round(bat_mem / seq_mem, 3),
            "ingest_seq_durable": entry(seq_dur),
            "ingest_batch_durable": entry(bat_dur),
            "ingest_speedup_durable": round(bat_dur / seq_dur, 3),
            "fr_query": entry(fr_ops),
            "pa_query": entry(pa_ops),
            "fr_query_per_cal": round(fr_ops / cal, 6),
            "pa_query_per_cal": round(pa_ops / cal, 6),
            "filter_cold": entry(cold_ops),
            "filter_cached": entry(warm_ops),
            "telemetry_enabled": entry(tel_on_ops),
            "telemetry_disabled": entry(tel_off_ops),
            "telemetry_overhead_ratio": round(tel_on_ops / tel_off_ops, 3),
            **slo_speeds,
        },
        "serving_slo": serving_slo,
        "gate": {
            "tolerance": TOLERANCE,
            "key_tolerance": dict(KEY_TOLERANCE),
            "ratios": list(GATED_RATIOS),
            "telemetry_floor": TELEMETRY_FLOOR,
        },
    }


def apply_gate(result, baseline_path):
    try:
        with open(baseline_path) as fh:
            baseline = json.load(fh)
    except FileNotFoundError:
        print(f"perf_gate: no baseline at {baseline_path}; gate skipped")
        return True
    ok = True
    same_mode = result.get("mode") == baseline.get("mode")
    for key in GATED_RATIOS:
        base = baseline.get("metrics", {}).get(key)
        cur = result["metrics"].get(key)
        if base is None or cur is None:
            continue
        if key in MODE_BOUND_KEYS and not same_mode:
            # Query throughput per calibration unit scales with the
            # dataset size, so the absolute only compares within one
            # mode; speedup ratios transfer across modes and still gate.
            print(
                f"perf_gate: {key}: {cur:.4g} (baseline is "
                f"{baseline.get('mode')!r} mode, this run "
                f"{result.get('mode')!r} — recorded, not gated)"
            )
            continue
        floor = base * (1.0 - KEY_TOLERANCE.get(key, TOLERANCE))
        status = "ok" if cur >= floor else "REGRESSION"
        print(
            f"perf_gate: {key}: {cur:.4g} vs baseline {base:.4g} "
            f"(floor {floor:.4g}) {status}"
        )
        if cur < floor:
            ok = False
    return ok


def apply_telemetry_gate(result):
    """Absolute floor: enabled telemetry may cost at most 10% throughput."""
    ratio = result["metrics"]["telemetry_overhead_ratio"]
    status = "ok" if ratio >= TELEMETRY_FLOOR else "REGRESSION"
    print(
        f"perf_gate: telemetry_overhead_ratio: {ratio:.3f} "
        f"(floor {TELEMETRY_FLOOR:.2f}, absolute) {status}"
    )
    return ratio >= TELEMETRY_FLOOR


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=sorted(MODES), default="full")
    parser.add_argument("--out", default="BENCH_pr9.json")
    parser.add_argument(
        "--baseline",
        default=os.path.join(os.path.dirname(__file__), "perf_baseline.json"),
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the result as the new baseline instead of gating",
    )
    parser.add_argument("--no-gate", action="store_true")
    args = parser.parse_args(argv)

    result = run_suite(args.mode)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"perf_gate: wrote {args.out}")
    for key in (
        "ingest_speedup_memory",
        "ingest_speedup_durable",
        "telemetry_overhead_ratio",
    ):
        print(f"perf_gate: {key} = {result['metrics'][key]}x")
    for key in ("fr_query_per_cal", "pa_query_per_cal"):
        print(f"perf_gate: {key} = {result['metrics'][key]}")
    slo = result["serving_slo"]
    for kind, pcts in sorted(slo["latency_ms"].items()):
        print(
            f"perf_gate: slo {kind}: p50={pcts['p50']}ms "
            f"p95={pcts['p95']}ms p99={pcts['p99']}ms"
        )

    if args.write_baseline:
        with open(args.baseline, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"perf_gate: baseline written to {args.baseline}")
        return 0
    if args.no_gate:
        return 0
    ok = apply_gate(result, args.baseline)
    ok = apply_telemetry_gate(result) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
