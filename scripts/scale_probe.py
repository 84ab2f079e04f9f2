#!/usr/bin/env python
"""Scale probe: the write path's time and memory, and FR's stages, on one
road world.

    PYTHONPATH=src python scripts/scale_probe.py --world CH10K [--check] [--out BENCH_scale.json]

Generates the road world ``bench.worlds.road_inputs(n, 101)`` (CH2K is
n = 2 000, ..., CH500K n = 500 000) and, in this process, with no WAL:

1. bulk-loads its tick-``T0`` state into an empty server in one
   ``report_batch``, timing the two ring listeners (``dh_s``, ``pa_s``) by
   wrapping their ``on_report_batch``; the remainder of the load is the
   TPR-tree and the object table;
2. reads the process's resident set after the load and its high-water mark
   (``VmRSS`` / ``VmHWM`` from ``/proc/self/status``), and the bytes the DH
   and PA rings hold;
3. runs 20 ticks of ``advance_to`` + the tick's report wave: per tick, the
   advance (whose DH and PA share is the materialisation of the slot
   entering their window), the two listeners' report work, and the minor
   page faults (``ru_minflt``);
4. runs the world's PA query list and, up to CH50K, its FR query list with
   the median of each FR stage (filter, fuse, fetch, sweep, merge), the
   Y-events the sweep expanded per X-segment, and per query the objects
   the index returned (``fr_objects_examined``) and the object-band pairs
   the sweep received (``fr_refine_objects``), after the write path's peak
   is read (the FR list's own high-water mark is ``fr_list_peak_mb``).
   Past CH50K the FR list is not run: its sweep is still quadratic
   (ROADMAP item 2).

It prints one JSON record; ``--out`` stores it under the world's name in a
JSON file (other worlds' records are kept).  ``--check`` exits 1 when the
peak exceeds twice the resident set after the load (whole-table waves must
stream through the listeners in bounded passes, not hold grids in
proportion to the table); for worlds of 10 000 objects or more, when the
server holds more than ``RSS_BYTES_PER_OBJECT_LIMIT`` per object after the
load (below that size the fixed rings dominate the figure); or when one of
the FR list's first three answers misclassifies a probe point of
``bench.checks.point_oracle_mismatches``, the check ``bench/query_passes.py``
runs at CH2K (recorded as ``fr_oracle_mismatches``).  Each world should
run in a process of its own, so that the high-water mark is that world's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

from bench.checks import point_oracle_mismatches  # noqa: E402
from bench.worlds import T0, road_inputs  # noqa: E402
from repro.core.system import PDRServer  # noqa: E402

WORLDS = {"CH2K": 2_000, "CH10K": 10_000, "CH50K": 50_000, "CH100K": 100_000,
          "CH500K": 500_000}
SEED = 101
TICKS = 20
PEAK_OVER_LOAD_LIMIT = 2.0
# Server RSS per object after the bulk load, gated from CH10K up (it falls
# with n, the rings being fixed): CH10K measured 2 562 B with W + 1 slot
# rings (4 235 B with the H + 1 slot rings before them).
RSS_BYTES_PER_OBJECT_LIMIT = 3_000
RSS_GATE_MIN_OBJECTS = 10_000
FR_MAX_OBJECTS = 50_000
FR_STAGES = ("filter", "fuse", "fetch", "sweep", "merge")
# FR answers of the list checked against the point oracle under --check,
# with as many probe points each as bench/query_passes.py uses at CH2K.
ORACLE_QUERIES = 3
ORACLE_POINTS = 2000


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
    """Seconds spent in one listener hook (``on_report_batch`` by default)."""

    def __init__(self, listener, hook_name: str = "on_report_batch") -> None:
        self.seconds = 0.0
        hook = getattr(listener, hook_name)

        def timed(*args):
            t0 = time.perf_counter()
            try:
                hook(*args)
            finally:
                self.seconds += time.perf_counter() - t0

        setattr(listener, hook_name, timed)  # dispatch looks the hook up per call

    def take(self) -> float:
        seconds, self.seconds = self.seconds, 0.0
        return seconds


def _median_ms(seconds) -> float:
    return round(1000.0 * statistics.median(seconds), 3)


def _fr_list(server, inputs) -> Tuple[dict, list]:
    """The world's FR list: p50 wall ms, each stage's p50 ms, the Y-events
    expanded per X-segment over the list, and per query the objects the
    index returned and the object-band pairs the sweep received; and the
    answers."""
    wall, results = [], []
    for l, varrho, offset in inputs.fr_queries:
        t0 = time.perf_counter()
        result = server.query("fr", qt=server.tnow + offset, l=l, varrho=varrho)
        wall.append(time.perf_counter() - t0)
        results.append(result)
    stats = [result.stats.extra for result in results]
    segments = sum(extra.get("refine_segments", 0.0) for extra in stats)
    events = sum(extra.get("refine_events", 0.0) for extra in stats)
    record = {"fr_query_ms_p50": _median_ms(wall)}
    for stage in FR_STAGES:
        record[f"fr_{stage}_ms_p50"] = _median_ms(
            [extra.get(f"{stage}_seconds", 0.0) for extra in stats]
        )
    record["fr_events_per_segment"] = round(events / segments, 2) if segments else 0.0
    record["fr_objects_examined"] = [result.stats.objects_examined for result in results]
    record["fr_refine_objects"] = [int(extra.get("refine_objects", 0)) for extra in stats]
    return record, results


def _fr_oracle_mismatches(server, results) -> list:
    """Probe points misclassified by each of the first ``ORACLE_QUERIES``
    FR answers, counted against Definition 1-3 directly."""
    return [
        point_oracle_mismatches(server, result, ORACLE_POINTS, SEED)
        for result in results[:ORACLE_QUERIES]
    ]


def probe(world: str, check_answers: bool = False) -> dict:
    n = WORLDS[world]
    t0 = time.perf_counter()
    inputs = road_inputs(n, SEED)
    datagen_s = time.perf_counter() - t0
    rss_datagen = _status_mb()["VmRSS"]

    server = PDRServer(inputs.config, expected_objects=n, tnow=T0)
    dh_timer, pa_timer = _Timer(server.histogram), _Timer(server.pa)
    dh_entry, pa_entry = (
        _Timer(server.histogram, "on_advance"), _Timer(server.pa, "on_advance")
    )
    t0 = time.perf_counter()
    server.report_batch(inputs.state)
    load_s = time.perf_counter() - t0
    dh_s, pa_s = dh_timer.take(), pa_timer.take()
    rss_load = _status_mb()["VmRSS"]

    ticks = {key: [] for key in ("tick", "advance", "dh", "pa", "dh_entry", "pa_entry")}
    reports, faults = [], []
    for tick in range(T0 + 1, T0 + TICKS + 1):
        wave = inputs.wave(tick)
        minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        server.advance_to(tick)
        t1 = time.perf_counter()
        server.report_batch(wave)
        t2 = time.perf_counter()
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt)
        ticks["tick"].append(t2 - t0)
        ticks["advance"].append(t1 - t0)
        for key, timer in (("dh", dh_timer), ("pa", pa_timer),
                           ("dh_entry", dh_entry), ("pa_entry", pa_entry)):
            ticks[key].append(timer.take())
        reports.append(len(wave))

    pa_ms = []
    for l, varrho, offset in inputs.pa_queries:
        t0 = time.perf_counter()
        server.query("pa", qt=server.tnow + offset, l=l, varrho=varrho)
        pa_ms.append(1000.0 * (time.perf_counter() - t0))

    status = _status_mb()
    fr = {}
    if n <= FR_MAX_OBJECTS:
        fr, results = _fr_list(server, inputs)
        fr["fr_list_peak_mb"] = round(_status_mb()["VmHWM"], 1)
        if check_answers:
            fr["fr_oracle_mismatches"] = _fr_oracle_mismatches(server, results)
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
        "dh_memory_bytes": server.histogram.memory_bytes(),
        "pa_memory_bytes": server.pa.memory_bytes(),
        "peak_mb": round(status["VmHWM"], 1),
        "peak_over_after_load": round(status["VmHWM"] / rss_load, 3),
        "reports_per_tick_p50": statistics.median(reports),
        "tick_ms_p50": _median_ms(ticks["tick"]),
        "tick_advance_ms_p50": _median_ms(ticks["advance"]),
        "tick_dh_entry_ms_p50": _median_ms(ticks["dh_entry"]),
        "tick_pa_entry_ms_p50": _median_ms(ticks["pa_entry"]),
        "tick_dh_ms_p50": _median_ms(ticks["dh"]),
        "tick_pa_ms_p50": _median_ms(ticks["pa"]),
        "tick_minflt_p50": statistics.median(faults),
        "ticks_s": round(sum(ticks["tick"]), 3),
        "pa_list_ms": round(sum(pa_ms), 2),
        "pa_query_ms_p50": round(statistics.median(pa_ms), 3),
        **fr,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--world", choices=sorted(WORLDS, key=WORLDS.get), required=True)
    parser.add_argument("--check", action="store_true",
                        help=f"exit 1 if peak > {PEAK_OVER_LOAD_LIMIT:g} x RSS after the load, "
                        f"(from {RSS_GATE_MIN_OBJECTS} objects) the server holds more than "
                        f"{RSS_BYTES_PER_OBJECT_LIMIT} B per object, or one of the first "
                        f"{ORACLE_QUERIES} FR answers disagrees with the point oracle")
    parser.add_argument("--out", default=None,
                        help="store the record under the world's name in this JSON file")
    args = parser.parse_args()
    record = probe(args.world, check_answers=args.check)
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
    if not args.check:
        return 0
    failed = False
    if record["peak_over_after_load"] > PEAK_OVER_LOAD_LIMIT:
        print(f"scale probe {args.world}: peak {record['peak_mb']} MB is more than "
              f"{PEAK_OVER_LOAD_LIMIT:g} x the {record['rss_after_load_mb']} MB held after "
              "the bulk load", file=sys.stderr)
        failed = True
    wrong = record.get("fr_oracle_mismatches", [])
    if any(wrong):
        print(f"scale probe {args.world}: FR answers misclassify {wrong} of "
              f"{ORACLE_POINTS} probe points each", file=sys.stderr)
        failed = True
    per_object = record["server_rss_bytes_per_object"]
    if record["n_objects"] >= RSS_GATE_MIN_OBJECTS and per_object > RSS_BYTES_PER_OBJECT_LIMIT:
        print(f"scale probe {args.world}: the server holds {per_object} B per object after "
              f"the bulk load, more than {RSS_BYTES_PER_OBJECT_LIMIT} B", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
