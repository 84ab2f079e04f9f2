#!/usr/bin/env python
"""Scale probe: the write path's time and memory, and FR's stages, on one
road world.

    PYTHONPATH=src python scripts/scale_probe.py --world CH10K [--check] [--out BENCH_scale.json]

Generates the road world ``bench.worlds.road_inputs(n, 101)`` (CH2K is
n = 2 000, ..., CH500K n = 500 000), timing it whole (``datagen_s``) and
per report generated (``datagen_us_per_report``), and, in this process,
with no WAL:

1. bulk-loads its tick-``T0`` state into an empty server in one
   ``report_batch``, then reads the TPR-tree's size, which builds it (a
   write only marks the tree stale; its first read rebuilds it), timing
   the two ring listeners (``bulk_load_dh_s``, ``bulk_load_pa_s``) by
   wrapping their ``on_report_batch``, the tree's build
   (``bulk_load_tpr_s``) by wrapping its ``bulk_load``, and counting the
   load's minor page faults (``bulk_load_minflt``); the remainder of the
   load is the object table and validation (``bulk_load_table_s``);
2. reads the process's resident set after the load, the tree built, and
   its high-water mark
   (``VmRSS`` / ``VmHWM`` from ``/proc/self/status``), and the bytes the DH
   and PA rings hold;
3. runs 20 ticks of ``advance_to`` + the tick's report wave: per tick, the
   advance (whose DH and PA share is the materialisation of the slot
   entering their window), the two listeners' report work, the kernel
   passes each listener ran (``tick_pa_passes_p50``,
   ``tick_dh_passes_p50``: ``Columns.passes`` runs, entry and wave) and the
   minor page faults (``ru_minflt``); then times one PA and one DH pass over
   one motion at one timestamp into a scratch slot (``pa_pass_one_us``,
   ``dh_pass_one_us``, the median of ``ONE_PASS_SAMPLES``): what a pass
   costs before its first square;
4. runs the world's PA query list and its FR query list with the median
   of each FR stage (filter, fuse, fetch, sweep, merge), the Y-events the
   sweep expanded per X-segment, and per query the objects the index
   returned (``fr_objects_examined``) and the object-band pairs the sweep
   received (``fr_refine_objects``), after the write path's peak is read
   (the FR list's own high-water mark is ``fr_list_peak_mb``, its run time
   ``fr_list_s``, and the tree rebuild its first query runs after the
   ticks ``fr_catch_up_ms``);
5. re-runs the FR list's heaviest query (the most Y-events) under
   tracemalloc, for the most its fetch and its sweep each allocate above
   what they start from (``fr_fetch_peak_mb``, ``fr_sweep_peak_mb``).

It prints one JSON record; ``--out`` stores it under the world's name in a
JSON file (other worlds' records are kept).  ``--check`` exits 1 when the
peak exceeds twice the resident set after the load (whole-table waves must
stream through the listeners in bounded passes, not hold grids in
proportion to the table); when the FR list's high-water mark exceeds
``FR_PEAK_OVER_WRITE_LIMIT`` times the write path's (the sweep expands its
events in budgeted runs); when a tick takes more than
``TICK_MINFLT_LIMIT`` minor faults at the median (a pass reuses its
working set); for worlds of 10 000 objects or more, when the server holds
more than ``RSS_BYTES_PER_OBJECT_LIMIT`` per object after the load (below
that size the fixed rings dominate the figure); or when one of the FR
list's first three answers misclassifies a probe point of
``bench.checks.point_oracle_mismatches``, the check ``bench/query_passes.py``
runs at CH2K (recorded as ``fr_oracle_mismatches``).  Each world should
run in a process of its own, so that the high-water mark and the page
faults are that world's.

Every record carries the bench's machine-speed kernel (``bench.harness.
Context.slowdown``, the median of ``SLOWDOWN_WINDOW`` samples) taken before
the world is generated and after its last query (``machine_slowdown_before``
/ ``_after``: times slower than the bench's reference machine), so a slow
minute on the box reads as such rather than as slow code.
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
import tracemalloc
from typing import Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

from bench.checks import point_oracle_mismatches  # noqa: E402
from bench.harness import SLOWDOWN_WINDOW, Context  # noqa: E402
from bench.worlds import T0, road_inputs  # noqa: E402
from repro.core.system import PDRServer  # noqa: E402
from repro.methods import fr as fr_module  # noqa: E402
from repro.motion.updates import Columns  # noqa: E402

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
# The FR list's high-water mark over the write path's: the sweep's runs and
# the fetch hold a few MB beside the server (CH50K read 5.7x with the sweep
# expanding all of a query's events at once).
FR_PEAK_OVER_WRITE_LIMIT = 1.5
# Minor faults of a median tick: a pass that reuses its working set faults
# none (CH10K read 5 190 and CH50K 17 029 when passes took fresh memory).
TICK_MINFLT_LIMIT = 100
FR_STAGES = ("filter", "fuse", "fetch", "sweep", "merge")
# Timed one-motion, one-timestamp passes per listener (after as many
# untimed ones).
ONE_PASS_SAMPLES = 200
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


_PASSES = [0]  # Columns.passes runs yielded so far, once counting is on


def _count_passes() -> None:
    """Count every run :meth:`Columns.passes` yields, in ``_PASSES``."""
    plain = Columns.passes

    def counted(self, slots):
        for run in plain(self, slots):
            _PASSES[0] += 1
            yield run

    Columns.passes = counted


class _Timer:
    """Seconds spent in one listener hook (``on_report_batch`` by default),
    and the kernel passes it ran (when :func:`_count_passes` is on)."""

    def __init__(self, listener, hook_name: str = "on_report_batch") -> None:
        self.seconds = 0.0
        self.passes = 0
        hook = getattr(listener, hook_name)

        def timed(*args):
            passes = _PASSES[0]
            t0 = time.perf_counter()
            try:
                hook(*args)
            finally:
                self.seconds += time.perf_counter() - t0
                self.passes += _PASSES[0] - passes

        setattr(listener, hook_name, timed)  # dispatch looks the hook up per call

    def take(self) -> float:
        seconds, self.seconds = self.seconds, 0.0
        return seconds

    def take_passes(self) -> int:
        passes, self.passes = self.passes, 0
        return passes


def _one_pass_us(server) -> dict:
    """Median microseconds of one PA and one DH pass over one motion at one
    timestamp, the motion's square inside the domain, into a scratch slot."""
    motions = server.table.columns()
    xs, ys = motions.positions_at(server.tnow)
    inside = np.flatnonzero(server.config.domain.contains_points(xs, ys))
    one = motions.take(inside[:1])
    ts, slot = np.array([server.tnow]), np.zeros(1, dtype=np.int64)
    pa, dh = server.pa, server.histogram
    rings = {
        "pa": (pa, np.zeros((pa.spec.g, pa.spec.g, 1, pa.spec.k + 1, pa.spec.k + 1))),
        "dh": (dh, np.zeros((1, dh.m, dh.m), dtype=np.int32)),
    }
    record = {}
    for name, (listener, ring) in rings.items():
        seconds = []
        for sample in range(2 * ONE_PASS_SAMPLES):
            t0 = time.perf_counter()
            listener._materialise(one, ts, ring, slot)
            seconds.append(time.perf_counter() - t0)
        median = statistics.median(seconds[ONE_PASS_SAMPLES:])
        record[f"{name}_pass_one_us"] = round(1e6 * median, 1)
    return record


def _slowdown(ctx: Context) -> float:
    """How many times slower than the bench's reference machine this one
    runs now: the median of ``SLOWDOWN_WINDOW`` fresh kernel samples."""
    for _ in range(SLOWDOWN_WINDOW):
        slowdown = ctx.slowdown()
    return round(slowdown, 3)


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


def _fr_stage_peaks(server, inputs, results) -> dict:
    """The most FR's fetch and its sweep each allocate above what they
    start from (tracemalloc, MB), re-running the list's heaviest query."""
    extras = [result.stats.extra for result in results]
    heaviest = max(range(len(extras)), key=lambda i: extras[i].get("refine_events", 0.0))
    l, varrho, offset = inputs.fr_queries[heaviest]
    peaks = {"fetch": 0, "sweep": 0}

    def traced(stage, call):
        def run(*args, **kwargs):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            try:
                return call(*args, **kwargs)
            finally:
                peaks[stage] = max(peaks[stage], tracemalloc.get_traced_memory()[1] - start)
        return run

    fetch, sweep = server.tree.range_positions_batch, fr_module.refine_bands
    server.tree.range_positions_batch = traced("fetch", fetch)
    fr_module.refine_bands = traced("sweep", sweep)
    tracemalloc.start()
    try:
        server.query("fr", qt=server.tnow + offset, l=l, varrho=varrho)
    finally:
        tracemalloc.stop()
        del server.tree.range_positions_batch
        fr_module.refine_bands = sweep
    return {f"fr_{stage}_peak_mb": round(peak / 2**20, 1) for stage, peak in peaks.items()}


def _fr_oracle_mismatches(server, results) -> list:
    """Probe points misclassified by each of the first ``ORACLE_QUERIES``
    FR answers, counted against Definition 1-3 directly."""
    return [
        point_oracle_mismatches(server, result, ORACLE_POINTS, SEED)
        for result in results[:ORACLE_QUERIES]
    ]


def probe(world: str, check_answers: bool = False) -> dict:
    n = WORLDS[world]
    ctx = Context("scale_probe", SEED, 0.0, trace=False, scale="full", workdir=ROOT)
    slowdown_before = _slowdown(ctx)
    t0 = time.perf_counter()
    inputs = road_inputs(n, SEED)
    datagen_s = time.perf_counter() - t0
    # every report the simulator issued up to the end of the digest window
    reports_generated = inputs._simulator.reports_issued
    rss_datagen = _status_mb()["VmRSS"]

    server = PDRServer(inputs.config, expected_objects=n, tnow=T0)
    dh_timer, pa_timer = _Timer(server.histogram), _Timer(server.pa)
    tpr_timer = _Timer(server.tree, "bulk_load")
    dh_entry, pa_entry = (
        _Timer(server.histogram, "on_advance"), _Timer(server.pa, "on_advance")
    )
    minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    server.report_batch(inputs.state)
    len(server.tree)  # its first read builds the tree, as FR's fetch would
    load_s = time.perf_counter() - t0
    load_minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt
    dh_s, pa_s, tpr_s = dh_timer.take(), pa_timer.take(), tpr_timer.take()
    rss_load = _status_mb()["VmRSS"]

    ticks = {key: [] for key in ("tick", "advance", "dh", "pa", "dh_entry", "pa_entry")}
    reports, faults = [], []
    passes = {"pa": [], "dh": []}
    _count_passes()
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
        passes["dh"].append(dh_timer.take_passes() + dh_entry.take_passes())
        passes["pa"].append(pa_timer.take_passes() + pa_entry.take_passes())
        reports.append(len(wave))
    one_pass = _one_pass_us(server)

    pa_ms = []
    for l, varrho, offset in inputs.pa_queries:
        t0 = time.perf_counter()
        server.query("pa", qt=server.tnow + offset, l=l, varrho=varrho)
        pa_ms.append(1000.0 * (time.perf_counter() - t0))

    status = _status_mb()
    t0 = time.perf_counter()
    fr, results = _fr_list(server, inputs)
    fr["fr_list_s"] = round(time.perf_counter() - t0, 3)
    fr["fr_catch_up_ms"] = round(1000.0 * tpr_timer.take(), 3)
    fr["fr_list_peak_mb"] = round(_status_mb()["VmHWM"], 1)
    fr.update(_fr_stage_peaks(server, inputs, results))
    if check_answers:
        fr["fr_oracle_mismatches"] = _fr_oracle_mismatches(server, results)
    slowdown_after = _slowdown(ctx)
    return {
        "world": world,
        "n_objects": n,
        "seed": SEED,
        "datagen_s": round(datagen_s, 3),
        "datagen_us_per_report": round(1e6 * datagen_s / reports_generated, 2),
        "bulk_load_s": round(load_s, 3),
        "bulk_load_dh_s": round(dh_s, 3),
        "bulk_load_pa_s": round(pa_s, 3),
        "bulk_load_tpr_s": round(tpr_s, 3),
        "bulk_load_table_s": round(load_s - dh_s - pa_s - tpr_s, 3),
        "bulk_load_minflt": load_minflt,
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
        "tick_pa_passes_p50": statistics.median(passes["pa"]),
        "tick_dh_passes_p50": statistics.median(passes["dh"]),
        **one_pass,
        "ticks_s": round(sum(ticks["tick"]), 3),
        "pa_list_ms": round(sum(pa_ms), 2),
        "pa_query_ms_p50": round(statistics.median(pa_ms), 3),
        **fr,
        "machine_slowdown_before": slowdown_before,
        "machine_slowdown_after": slowdown_after,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--world", choices=sorted(WORLDS, key=WORLDS.get), required=True)
    parser.add_argument("--check", action="store_true",
                        help=f"exit 1 if peak > {PEAK_OVER_LOAD_LIMIT:g} x RSS after the load, "
                        f"the FR list's peak > {FR_PEAK_OVER_WRITE_LIMIT:g} x the write path's, "
                        f"a median tick takes > {TICK_MINFLT_LIMIT} minor faults, "
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
    if record["fr_list_peak_mb"] > FR_PEAK_OVER_WRITE_LIMIT * record["peak_mb"]:
        print(f"scale probe {args.world}: the FR list's peak {record['fr_list_peak_mb']} MB is "
              f"more than {FR_PEAK_OVER_WRITE_LIMIT:g} x the write path's {record['peak_mb']} MB",
              file=sys.stderr)
        failed = True
    if record["tick_minflt_p50"] > TICK_MINFLT_LIMIT:
        print(f"scale probe {args.world}: a median tick takes {record['tick_minflt_p50']} minor "
              f"page faults, more than {TICK_MINFLT_LIMIT}", file=sys.stderr)
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
