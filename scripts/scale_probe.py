#!/usr/bin/env python
"""Scale probe: the write path's time and memory on one road world.

    PYTHONPATH=src python scripts/scale_probe.py --world CH10K [--check] [--out BENCH_scale.json]

Generates the road world ``bench.worlds.road_inputs(n, 101)`` (CH2K is
n = 2 000, ..., CH500K n = 500 000) and, in this process, with no WAL:

1. bulk-loads its tick-``T0`` state into an empty server in one
   ``report_batch``, timing the two ring listeners (``dh_s``, ``pa_s``) by
   wrapping their ``on_report_batch``; the remainder of the load is the
   TPR-tree and the object table;
2. reads the process's resident set after the load and its high-water mark
   (``VmRSS`` / ``VmHWM`` from ``/proc/self/status``);
3. runs 20 ticks of ``advance_to`` + the tick's report wave, and the
   world's PA query list.

It prints one JSON record; ``--out`` stores it under the world's name in a
JSON file (other worlds' records are kept).  ``--check`` exits 1 when the
peak exceeds twice the resident set after the load: whole-table waves must
stream through the listeners in bounded passes, not hold grids in
proportion to the table.  Each world should run in a process of its own, so
that the high-water mark is that world's.  The FR list is not run: its
sweep is quadratic at these sizes (ROADMAP item 2).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

from bench.worlds import T0, road_inputs  # noqa: E402
from repro.core.system import PDRServer  # noqa: E402

WORLDS = {"CH2K": 2_000, "CH10K": 10_000, "CH50K": 50_000, "CH100K": 100_000,
          "CH500K": 500_000}
SEED = 101
TICKS = 20
PEAK_OVER_LOAD_LIMIT = 2.0


def _status_mb() -> dict:
    """``VmRSS`` and ``VmHWM`` of this process, in MB."""
    out = {}
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key in ("VmRSS", "VmHWM"):
                out[key] = int(value.split()[0]) / 1024.0
    return out


class _Timer:
    """Seconds spent in one listener's ``on_report_batch``."""

    def __init__(self, listener) -> None:
        self.seconds = 0.0
        hook = listener.on_report_batch

        def timed(wave):
            t0 = time.perf_counter()
            try:
                hook(wave)
            finally:
                self.seconds += time.perf_counter() - t0

        listener.on_report_batch = timed  # dispatch looks the hook up per call

    def take(self) -> float:
        seconds, self.seconds = self.seconds, 0.0
        return seconds


def probe(world: str) -> dict:
    n = WORLDS[world]
    t0 = time.perf_counter()
    inputs = road_inputs(n, SEED)
    datagen_s = time.perf_counter() - t0
    rss_datagen = _status_mb()["VmRSS"]

    server = PDRServer(inputs.config, expected_objects=n, tnow=T0)
    dh_timer, pa_timer = _Timer(server.histogram), _Timer(server.pa)
    t0 = time.perf_counter()
    server.report_batch(inputs.state)
    load_s = time.perf_counter() - t0
    dh_s, pa_s = dh_timer.take(), pa_timer.take()
    rss_load = _status_mb()["VmRSS"]

    tick_ms, tick_dh_ms, tick_pa_ms, reports = [], [], [], []
    for tick in range(T0 + 1, T0 + TICKS + 1):
        wave = inputs.wave(tick)
        t0 = time.perf_counter()
        server.advance_to(tick)
        server.report_batch(wave)
        tick_ms.append(1000.0 * (time.perf_counter() - t0))
        tick_dh_ms.append(1000.0 * dh_timer.take())
        tick_pa_ms.append(1000.0 * pa_timer.take())
        reports.append(len(wave))

    pa_ms = []
    for l, varrho, offset in inputs.pa_queries:
        t0 = time.perf_counter()
        server.query("pa", qt=server.tnow + offset, l=l, varrho=varrho)
        pa_ms.append(1000.0 * (time.perf_counter() - t0))

    status = _status_mb()
    return {
        "world": world,
        "n_objects": n,
        "seed": SEED,
        "datagen_s": round(datagen_s, 3),
        "bulk_load_s": round(load_s, 3),
        "bulk_load_dh_s": round(dh_s, 3),
        "bulk_load_pa_s": round(pa_s, 3),
        "bulk_load_tpr_and_table_s": round(load_s - dh_s - pa_s, 3),
        "rss_after_datagen_mb": round(rss_datagen, 1),
        "rss_after_load_mb": round(rss_load, 1),
        "server_rss_bytes_per_object": round((rss_load - rss_datagen) * 2**20 / n),
        "peak_mb": round(status["VmHWM"], 1),
        "peak_over_after_load": round(status["VmHWM"] / rss_load, 3),
        "reports_per_tick_p50": statistics.median(reports),
        "tick_ms_p50": round(statistics.median(tick_ms), 2),
        "tick_dh_ms_p50": round(statistics.median(tick_dh_ms), 2),
        "tick_pa_ms_p50": round(statistics.median(tick_pa_ms), 2),
        "ticks_s": round(sum(tick_ms) / 1000.0, 3),
        "pa_list_ms": round(sum(pa_ms), 2),
        "pa_query_ms_p50": round(statistics.median(pa_ms), 3),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--world", choices=sorted(WORLDS, key=WORLDS.get), required=True)
    parser.add_argument("--check", action="store_true",
                        help=f"exit 1 if peak > {PEAK_OVER_LOAD_LIMIT:g} x RSS after the load")
    parser.add_argument("--out", default=None,
                        help="store the record under the world's name in this JSON file")
    args = parser.parse_args()
    record = probe(args.world)
    print(json.dumps(record))
    if args.out:
        results = {}
        if os.path.exists(args.out):
            with open(args.out, "r", encoding="utf-8") as fh:
                results = json.load(fh)
        results[args.world] = record
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(dict(sorted(results.items(), key=lambda kv: WORLDS[kv[0]])), fh,
                      indent=2)
            fh.write("\n")
    if args.check and record["peak_over_after_load"] > PEAK_OVER_LOAD_LIMIT:
        print(f"scale probe {args.world}: peak {record['peak_mb']} MB is more than "
              f"{PEAK_OVER_LOAD_LIMIT:g} x the {record['rss_after_load_mb']} MB held after "
              "the bulk load", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
