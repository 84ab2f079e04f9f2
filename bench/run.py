"""The benchmark's one command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--out FILE]

With one workload it prints every metric of the chosen mode by name with
its unit, runs the correctness checks, prints the result object as the last
line and exits non-zero if a check failed.  ``--trace 0`` measures the
end-to-end metrics with no proxy installed; ``--trace 1`` measures half of
the window plain and half with the harness's span recorder installed, and
reports the per-layer metrics.  ``--workload all`` runs every workload in
both modes, each in a process of its own, and ``--out`` appends one JSON
line per run for ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_args(spec: dict) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: the self-test's size; numbers not comparable")
    parser.add_argument("--out", default=None,
                        help="append the run's result as one JSON line to this file")
    return parser.parse_args()


def _run_all(args: argparse.Namespace, spec: dict) -> int:
    status = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", workload["name"], "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--scale", args.scale,
            ]
            if args.out:
                command += ["--out", args.out]
            status = max(status, subprocess.run(command, cwd=ROOT).returncode)
    return status


def _run_one(args: argparse.Namespace, spec: dict) -> int:
    from bench import harness, ingest_durable, query_passes, serve_mixed
    from bench.stats import median

    runners = {
        "ingest_durable": ingest_durable.run,
        "query_snapshot": query_passes.run,
        "serve_mixed": serve_mixed.run,
        "query_sparse": query_passes.run,
    }
    machine = harness.machine_info()
    if machine["load_warning"]:
        print(f"warning: 1-min load {machine['load1_at_start']:.2f} exceeds "
              f"{machine['nproc']} cores; timings will be noisy", file=sys.stderr)
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    ctx = harness.Context(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale, workdir
    )
    started = time.perf_counter()
    try:
        runners[args.workload](ctx)
        if ctx.recorder is not None:
            ctx.recorder.dump(os.path.join(workdir, "spans.jsonl"))
            ctx.notes["span_table"] = ctx.recorder.table()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if "peak_rss_mb" not in ctx.metrics:  # serve_mixed reports its child's
        ctx.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    ctx.metrics["core.failed_op_share"] = ctx.failed / max(ctx.attempted, 1)
    if ctx.slowdowns:
        ctx.notes["machine_slowdown_p50"] = round(median(ctx.slowdowns), 4)
        ctx.notes["machine_slowdown_samples"] = len(ctx.slowdowns)

    declared = {
        m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]
    }
    undeclared = sorted(set(ctx.metrics) - set(declared))
    if undeclared:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {undeclared}")
    if args.trace:
        # a layer that did no work in this workload reads 0
        wanted = {m["name"]: 0.0 for m in spec["per_layer"]}
    else:
        wanted = {m["name"]: None for m in spec["end_to_end"]}
    metrics = {}
    for name, default in wanted.items():
        value = ctx.metrics.get(name, default)
        if value is None:
            raise SystemExit(f"{args.workload} did not measure {name}")
        metrics[name] = {"value": float(value), "unit": declared[name]}

    print(f"workload {args.workload} seed {args.seed} scale {args.scale} "
          f"trace {args.trace} ({time.perf_counter() - started:.1f} s)")
    for key, value in sorted(ctx.notes.items()):
        if key != "span_table":
            print(f"  {key}: {value}")
    for name, metric in metrics.items():
        print(f"  {name:44s} {metric['value']:14.4f} {metric['unit']}")
    for row in ctx.notes.get("span_table", []):
        print("  span {span:10s} parent {parent!s:10s} n={count:<5d} p50 {p50_ms:9.3f} ms "
              "tail {tail_ms:9.3f} ms self {self_p50_ms:9.3f} ms share {share_of_parent:.3f}"
              .format(**row))
    for name, ok, detail in ctx.checks.outcomes:
        print(f"  check {name}: {'ok' if ok else 'FAILED'}{'' if ok else ' - ' + detail}")
    result = {
        "correct": not ctx.checks.failed,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                      scale=args.scale, seconds=args.seconds, machine=machine,
                      notes=ctx.notes)
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main() -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench/run.py needs the repository's src/repro beside bench/", file=sys.stderr)
        return 2
    # Shipped defaults are what is measured: telemetry registry on, no
    # refine workers, no per-cell fallback, no armed crashpoint.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    # run as a script, sys.path[0] is bench/ itself, where trace.py would
    # shadow the standard library's module of that name
    sys.path[0] = ROOT
    sys.path.insert(1, os.path.join(ROOT, "src"))
    spec = _load_spec()
    args = _parse_args(spec)
    if args.workload == "all":
        return _run_all(args, spec)
    return _run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
