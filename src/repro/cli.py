"""Command-line interface.

Three subcommands cover the typical downstream workflow::

    python -m repro.cli simulate --objects 5000 --warmup 30 --out world.npz
    python -m repro.cli query --snapshot world.npz --method pa --varrho 2 \\
        --offset 20 --render
    python -m repro.cli report            # the full evaluation (run_all)

``simulate`` builds a road-network workload, warms a full server and
serialises its state; ``query`` restores the server and evaluates a snapshot
PDR query with any method, optionally rendering the dense regions as ASCII.

``metrics`` exposes the telemetry layer: with no arguments it runs a small
seeded probe workload (ingest waves, every query method, WAL appends,
replication, admission sheds) and renders the resulting registry in the
Prometheus text format; ``--from`` renders a snapshot saved by an earlier
``simulate``/``query`` run's ``--metrics-out`` instead.

``serve`` mounts a replication group behind the TCP front door
(:mod:`repro.serving`) until ``SIGTERM``/``Ctrl-C``, which triggers a
graceful drain and a clean exit 0; ``loadtest`` drives a seeded
open/closed-loop workload against a front door (an external one, or a
self-hosted group) and judges the p99s, failure ratio and acked-write
loss against SLOs.  Both print machine-readable ``port=``/
``metrics-port=`` lines on stdout when binding ephemeral ports (as does
``metrics --serve 0``), so scripts never have to guess.

Observability companions: ``journal`` tails the unified ops event
journal a ``serve``/``supervise`` run writes under
``<state_dir>/journal``; ``trace`` pretty-prints the stitched span tree
of one sampled distributed trace; ``top`` renders a live terminal view
(qps, latency percentiles, SLO budget, readonly/epoch state) from a
serving process's ``/metrics.json`` scrape endpoint.

Exit codes (stable; scripts may rely on them):

======  =========================================================
0       success (including ``metrics``, ``report``, clean ``verify``,
        a drained ``serve``)
1       any other :class:`~repro.core.errors.ReproError`
2       invalid parameters (bad method, bad thresholds, bad roles)
3       storage failures (snapshot/WAL/metrics-snapshot I/O, ``OSError``)
4       query evaluation failures
5       index integrity failures
6       data-generation failures
7       replication/serving failures (staleness, failover exhaustion,
        retries exhausted against a front door)
8       integrity damage (``verify`` found checksum-failing artifacts;
        ``serve`` refused a corrupt state dir without ``--force-recover``)
9       chaos invariant-oracle violation (``chaos``; finding, not error)
10      loadtest SLO violation or acked-write loss (finding, not error)
11      state directory locked by another live server process
12      supervisor gave up on a crash-looping child (``supervise``)
130     interrupted before completion (``Ctrl-C`` outside ``serve``/
        ``metrics --serve``, whose interrupts mean "stop serving" and
        exit 0 after a drain)
======  =========================================================
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .core.system import PDRServer
from .core.config import SystemConfig
from .core.errors import (
    DatagenError,
    IndexError_,
    IntegrityError,
    InvalidParameterError,
    QueryError,
    ReplicationError,
    ReproError,
    StateDirLockedError,
    StorageError,
)
from .datagen.network import synthetic_metro
from .datagen.trips import TripSimulator
from .experiments.viz import render_region
from .methods.table import METHODS
from .storage.snapshot import load_server, save_server
from .telemetry.instruments import SERVING_INFLIGHT

__all__ = ["main", "build_parser", "EXIT_CODES"]

# Most specific classes first: the first match wins, so a subclass (e.g.
# HorizonError < QueryError, RecoveryError < StorageError) maps to its
# family's code.  IntegrityError precedes its parent StorageError so that
# checksum damage (`repro verify`) is distinguishable from plain storage
# failures; ReplicationError precedes QueryError so that
# StalenessExceededError (a member of both families) reports as a serving
# problem, not a bad query.  Exit code 1 is reserved for any other
# ReproError; the chaos subcommand returns 9 directly when an invariant
# oracle fails (that is a finding, not an exception).
EXIT_CODES = (
    (InvalidParameterError, 2),
    (StateDirLockedError, 11),
    (IntegrityError, 8),
    (StorageError, 3),
    (ReplicationError, 7),
    (QueryError, 4),
    (IndexError_, 5),
    (DatagenError, 6),
    (ReproError, 1),
)
EXIT_VERIFY_FAILED = 8
EXIT_CHAOS_ORACLE_FAILED = 9
EXIT_LOADTEST_FAILED = 10
EXIT_STATE_LOCKED = 11
EXIT_CRASH_LOOP = 12
EXIT_INTERRUPTED = 130


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pointwise-dense region queries over moving objects "
        "(Ni & Ravishankar, ICDE 2007 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate and warm a server, save a snapshot")
    sim.add_argument("--objects", type=int, default=2000, help="number of moving objects")
    sim.add_argument("--seed", type=int, default=7, help="workload seed")
    sim.add_argument("--warmup", type=int, default=30, help="timestamps to simulate")
    sim.add_argument("--network-grid", type=int, default=30,
                     help="road-network intersections per side")
    sim.add_argument("--out", required=True, help="output snapshot path (.npz)")
    sim.add_argument("--metrics-out", default=None,
                     help="also save a telemetry snapshot (JSON) here, "
                          "renderable later with `repro metrics --from`")

    query = sub.add_parser("query", help="evaluate a snapshot PDR query")
    query.add_argument("--snapshot", required=True, help="snapshot produced by simulate")
    query.add_argument("--method", default="pa",
                       choices=list(METHODS))
    group = query.add_mutually_exclusive_group(required=True)
    group.add_argument("--varrho", type=float, help="threshold relative to average density")
    group.add_argument("--rho", type=float, help="absolute density threshold")
    query.add_argument("--l", type=float, default=None, help="neighborhood edge length")
    query.add_argument("--offset", type=int, default=0,
                       help="query timestamp offset from t_now (predictive)")
    query.add_argument("--deadline", type=float, default=None,
                       help="time budget in seconds; the server degrades to "
                            "cheaper methods rather than miss it")
    query.add_argument("--render", action="store_true",
                       help="print an ASCII map of the dense regions")
    query.add_argument("--geojson", action="store_true",
                       help="print the answer as a GeoJSON MultiPolygon")
    query.add_argument("--max-rects", type=int, default=10,
                       help="number of rectangles to list")
    query.add_argument("--replicas", type=int, default=0,
                       help="serve through a replication group with this many "
                            "replicas (0 = query the snapshot server directly)")
    query.add_argument("--staleness", type=int, default=0,
                       help="max LSN lag at which a replica may serve reads")
    query.add_argument("--reliability-report", action="store_true",
                       help="print the reliability counters (dead-letter, "
                            "degradations, replication) as JSON on stderr")
    query.add_argument("--metrics-out", default=None,
                       help="save a telemetry snapshot (JSON) of this run, "
                            "renderable later with `repro metrics --from`")

    peaks = sub.add_parser("peaks", help="report the k densest locations")
    peaks.add_argument("--snapshot", required=True, help="snapshot produced by simulate")
    peaks.add_argument("--k", type=int, default=5, help="number of peaks")
    peaks.add_argument("--offset", type=int, default=0,
                       help="query timestamp offset from t_now (predictive)")
    peaks.add_argument("--separation", type=float, default=50.0,
                       help="minimum distance between reported peaks")

    sub.add_parser("report", help="run the full evaluation (all tables/figures)")

    rel = sub.add_parser(
        "reliability",
        help="recover a durable state directory and print its reliability "
             "counters (WAL position, dead-letter queue, degradations)",
    )
    rel.add_argument("--state-dir", required=True,
                     help="state directory of a durable server")

    verify = sub.add_parser(
        "verify",
        help="checksum-verify a durable state directory (exit 0 = every "
             "WAL record and checkpoint artifact is intact, 8 = damage)",
    )
    verify.add_argument("--state-dir", required=True,
                        help="state directory to scrub")
    verify.add_argument("--json", action="store_true",
                        help="print the full report as JSON")
    verify.add_argument("--scrub", action="store_true",
                        help="repair in place what is safe to repair: delete "
                             "stray *.tmp files, truncate a torn WAL tail, "
                             "quarantine corrupt artifacts")

    chaos = sub.add_parser(
        "chaos",
        help="run a seeded chaos schedule against a replicated serving "
             "stack and check the invariant oracles (exit 9 = violation, "
             "with a shrunk reproducer)",
    )
    chaos.add_argument("--seed", type=int, default=0, help="schedule seed")
    chaos.add_argument("--events", type=int, default=200,
                       help="number of scheduled events")
    chaos.add_argument("--replicas", type=int, default=2,
                       help="replicas behind the primary")
    chaos.add_argument("--objects", type=int, default=24,
                       help="moving-object id space of the workload")
    chaos.add_argument("--staleness", type=int, default=0,
                       help="staleness bound for replica reads")
    chaos.add_argument("--no-shrink", action="store_true",
                       help="on failure, skip shrinking to a minimal reproducer")
    chaos.add_argument("--repro-out", default=None,
                       help="on failure, write the reproducer JSON here")
    chaos.add_argument("--network", action="store_true",
                       help="run the schedule through the TCP front door "
                            "behind a fault-injecting proxy (connection "
                            "resets, truncated frames, slow-loris, accept "
                            "stalls) and check the wire invariants too")
    chaos.add_argument("--resources", action="store_true",
                       help="add resource-exhaustion events (disk-budget "
                            "shrinks/restores, ENOSPC/EIO/short-write WAL "
                            "and checkpoint faults) and check the "
                            "read-only-monotonicity and acked-write-loss "
                            "oracles under them")
    chaos.add_argument("--process", action="store_true",
                       help="run the process-level kill matrix instead: "
                            "SIGKILL a real supervised `repro serve` child "
                            "at an armed crashpoint, restart it, and check "
                            "the recovered on-disk state (zero acked-write "
                            "loss, clean-or-quarantined, contiguous LSN "
                            "chain)")
    chaos.add_argument("--crashpoint", default=None,
                       help="with --process: run only this crashpoint "
                            "(default: every site on the matrix)")

    serve = sub.add_parser(
        "serve",
        help="serve a replicated PDR stack over TCP (length-prefixed JSON "
             "frames) until SIGTERM/Ctrl-C, then drain gracefully",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = ephemeral; the bound port is "
                            "printed to stdout as `port=N`)")
    serve.add_argument("--snapshot", default=None,
                       help="mount this simulate snapshot (default: a fresh "
                            "seeded workload)")
    serve.add_argument("--objects", type=int, default=200,
                       help="objects in the fresh seeded workload")
    serve.add_argument("--seed", type=int, default=7, help="workload seed")
    serve.add_argument("--replicas", type=int, default=2,
                       help="replicas behind the primary")
    serve.add_argument("--staleness", type=int, default=1_000_000,
                       help="max LSN lag at which a replica may serve reads")
    serve.add_argument("--state-dir", default=None,
                       help="durable state directory (default: a temporary "
                            "one, removed on exit)")
    serve.add_argument("--admission-rate", type=float, default=None,
                       help="token-bucket refill rate (tokens/s); enables "
                            "the admission controller")
    serve.add_argument("--read-timeout", type=float, default=30.0,
                       help="per-connection read timeout (seconds)")
    serve.add_argument("--max-inflight", type=int, default=16,
                       help="pipelined requests allowed per connection")
    serve.add_argument("--drain-deadline", type=float, default=5.0,
                       help="seconds in-flight requests get to finish on drain")
    serve.add_argument("--metrics-port", type=int, default=None,
                       help="also serve /metrics on this port (0 = ephemeral; "
                            "printed to stdout as `metrics-port=N`)")
    serve.add_argument("--fsync", action="store_true",
                       help="fsync every WAL append (durable acks; the "
                            "default trades that for throughput)")
    serve.add_argument("--checkpoint-interval", type=int, default=0,
                       help="checkpoint every N ticks (0 = WAL only)")
    serve.add_argument("--force-recover", action="store_true",
                       help="boot from a state dir the verifier flags as "
                            "corrupt by quarantining the damage first "
                            "(default: refuse with exit 8)")

    sup = sub.add_parser(
        "supervise",
        help="run `repro serve` as a supervised child process: restart "
             "crashes with capped jittered backoff, probe TCP health, "
             "give up on crash loops (exit 12); args after `--` are "
             "forwarded to serve verbatim",
    )
    sup.add_argument("--host", default="127.0.0.1", help="child bind address")
    sup.add_argument("--port", type=int, default=0,
                     help="child TCP port (0 = first child picks an "
                          "ephemeral port, then every restart reuses it)")
    sup.add_argument("--probe-interval", type=float, default=0.2,
                     help="seconds between health probes")
    sup.add_argument("--probe-timeout", type=float, default=2.0,
                     help="per-probe socket budget (seconds)")
    sup.add_argument("--liveness-failures", type=int, default=3,
                     help="consecutive failed probes before a live but "
                          "unresponsive child is killed as hung")
    sup.add_argument("--startup-deadline", type=float, default=30.0,
                     help="seconds a child gets to bind and report ready")
    sup.add_argument("--backoff-initial", type=float, default=0.2,
                     help="restart backoff floor (seconds)")
    sup.add_argument("--backoff-max", type=float, default=5.0,
                     help="restart backoff cap (seconds)")
    sup.add_argument("--crash-loop-threshold", type=int, default=5,
                     help="crashes within the window that mean give up")
    sup.add_argument("--crash-loop-window", type=float, default=30.0,
                     help="sliding crash-loop window (seconds)")
    sup.add_argument("--max-restarts", type=int, default=None,
                     help="restart budget (default: unbounded)")
    sup.add_argument("--graceful-deadline", type=float, default=10.0,
                     help="drain budget on SIGTERM before SIGKILL")
    sup.add_argument("--seed", type=int, default=0,
                     help="backoff-jitter seed (determinism for tests)")
    sup.add_argument("--arm-crashpoint", default=None, metavar="SITE",
                     help="kill-matrix hook: arm this crashpoint in the "
                          "FIRST child only (restarts spawn disarmed)")
    sup.add_argument("--arm-after", type=int, default=0,
                     help="crashpoint hits to skip before the kill")
    sup.add_argument("--arm-torn", type=float, default=None,
                     help="torn-write fraction for the wal_write site")
    sup.add_argument("serve_args", nargs=argparse.REMAINDER,
                     help="arguments after `--` are passed to `repro serve`")

    lt = sub.add_parser(
        "loadtest",
        help="drive a seeded open/closed-loop load mix against a front door "
             "and judge latency/loss SLOs (exit 10 = violated)",
    )
    lt.add_argument("--host", default=None,
                    help="target an already-running front door (with --port); "
                         "default: self-host a fresh group")
    lt.add_argument("--port", type=int, default=None,
                    help="target port (with --host)")
    lt.add_argument("--mix", choices=["report-heavy", "query-heavy", "flash-crowd"],
                    default="report-heavy", help="operation mix")
    lt.add_argument("--mode", choices=["closed", "open"], default="closed",
                    help="closed loop (workers) or open loop (scheduled "
                         "arrivals, coordinated-omission-free)")
    lt.add_argument("--duration", type=float, default=5.0,
                    help="run length in seconds")
    lt.add_argument("--rate", type=float, default=100.0,
                    help="open loop: offered ops/second")
    lt.add_argument("--concurrency", type=int, default=4,
                    help="worker count (closed loop) / senders (open loop)")
    lt.add_argument("--seed", type=int, default=7, help="workload seed")
    lt.add_argument("--objects", type=int, default=64,
                    help="moving-object id space of the generated reports")
    lt.add_argument("--replicas", type=int, default=2,
                    help="self-hosted group: replicas behind the primary")
    lt.add_argument("--admission-rate", type=float, default=None,
                    help="self-hosted group: admission token rate (tokens/s)")
    lt.add_argument("--kill-primary-at", type=float, default=None,
                    help="self-hosted group: kill the primary this many "
                         "seconds into the run (failover under load)")
    lt.add_argument("--report-slo-ms", type=float, default=250.0,
                    help="report p99 SLO in milliseconds")
    lt.add_argument("--query-slo-ms", type=float, default=2000.0,
                    help="query p99 SLO in milliseconds")
    lt.add_argument("--max-failure-ratio", type=float, default=0.0,
                    help="fraction of ops allowed to exhaust retries")
    lt.add_argument("--trace-sample", type=int, default=0, metavar="N",
                    help="sample one in N ops for distributed tracing; on "
                         "an SLO violation the worst stitched trace is "
                         "printed with the verdict")
    lt.add_argument("--journal-dir", default=None,
                    help="journal the sampled client traces here (point at "
                         "the server's <state-dir>/journal so `repro "
                         "trace` can join them with its records)")
    lt.add_argument("--json-out", default=None,
                    help="write the full result (latencies, verdicts) here")

    jr = sub.add_parser(
        "journal",
        help="tail and filter the unified ops event journal (supervisor "
             "lifecycle, failover, read-only, sheds, breaker and SLO "
             "transitions, sampled traces)",
    )
    jr_src = jr.add_mutually_exclusive_group(required=True)
    jr_src.add_argument("--dir", dest="journal_dir", default=None,
                        help="journal directory (journal-<pid>-<n>.jsonl "
                             "segments)")
    jr_src.add_argument("--state-dir", default=None,
                        help="state directory of a serve/supervise run "
                             "(reads its journal/ subdirectory)")
    jr.add_argument("--event", default=None,
                    help="keep records with this event name; a trailing "
                         "'.' matches a prefix (e.g. `supervise.`)")
    jr.add_argument("--trace-id", default=None,
                    help="keep records stamped with this trace id")
    jr.add_argument("--since", type=float, default=None, metavar="EPOCH",
                    help="keep records at or after this wall timestamp "
                         "(epoch seconds)")
    jr.add_argument("--tail", type=int, default=50,
                    help="newest N records after filtering (0 = all)")
    jr.add_argument("--format", choices=["text", "json"], default="text",
                    help="text: one line per record; json: a JSON array")

    tr = sub.add_parser(
        "trace",
        help="pretty-print the stitched span tree of one distributed "
             "trace (client span, server dispatch, refinement stages)",
    )
    tr.add_argument("trace_id", help="the trace id to look up")
    tr_src = tr.add_mutually_exclusive_group(required=True)
    tr_src.add_argument("--dir", dest="journal_dir", default=None,
                        help="journal directory holding the sampled traces")
    tr_src.add_argument("--state-dir", default=None,
                        help="state directory (reads its journal/ "
                             "subdirectory)")
    tr.add_argument("--from", dest="from_path", default=None,
                    help="also search this telemetry snapshot's slow-query "
                         "log for the trace")

    top = sub.add_parser(
        "top",
        help="live terminal view of a serving process: qps, latency "
             "percentiles, inflight, SLO budget, readonly/epoch state "
             "(renders from the /metrics.json scrape endpoint)",
    )
    top.add_argument("--url", default=None,
                     help="metrics base URL (e.g. http://127.0.0.1:9100); "
                          "overrides --host/--port")
    top.add_argument("--host", default="127.0.0.1", help="metrics host")
    top.add_argument("--port", type=int, default=None,
                     help="metrics port (the `metrics-port=` line printed "
                          "by `repro serve --metrics-port`)")
    top.add_argument("--interval", type=float, default=1.0,
                     help="refresh interval in seconds")
    top.add_argument("--once", action="store_true",
                     help="print one frame and exit (scripts and CI)")

    met = sub.add_parser(
        "metrics",
        help="render the telemetry registry (Prometheus text or JSON); "
             "runs a seeded probe workload unless --from gives a snapshot",
    )
    met.add_argument("--from", dest="from_path", default=None,
                     help="render a telemetry snapshot saved with "
                          "--metrics-out instead of running the probe")
    met.add_argument("--format", choices=["prometheus", "json"],
                     default="prometheus", help="output format")
    met.add_argument("--out", default=None,
                     help="write the rendering here instead of stdout")
    met.add_argument("--seed", type=int, default=7, help="probe workload seed")
    met.add_argument("--serve", type=int, default=None, metavar="PORT",
                     help="after rendering, serve /metrics and /metrics.json "
                          "on this port until interrupted (0 = ephemeral)")
    return parser


def _cmd_simulate(args) -> int:
    config = SystemConfig()
    server = PDRServer(config, expected_objects=args.objects)
    network = synthetic_metro(config.domain, grid_n=args.network_grid, seed=args.seed)
    simulator = TripSimulator(
        network, args.objects, config.max_update_interval, seed=args.seed
    )
    simulator.initialize(server.table)
    simulator.run_until(server.table, args.warmup)
    save_server(server, args.out)
    print(
        f"simulated {server.object_count()} objects to t={server.tnow} "
        f"({simulator.reports_issued} reports); snapshot written to {args.out}"
    )
    return 0


def _serving_group(snapshot_path: str, replicas: int, staleness: int, state_dir: str):
    """A replication group whose primary is restored from a snapshot.

    The snapshot becomes a durable primary (WAL in ``state_dir``) whose
    first checkpoint carries the snapshot state at LSN 0, which is what
    the replicas bootstrap from.
    """
    from .reliability.replication import ReplicationConfig, ReplicationGroup
    from .reliability.validation import ReliabilityConfig
    from .storage.snapshot import read_snapshot, restore_server_state

    state = read_snapshot(snapshot_path)
    primary = PDRServer(
        state.config,
        expected_objects=max(len(state.motions), 1),
        tnow=state.tnow,
        reliability=ReliabilityConfig(state_dir=state_dir, fsync=False),
    )
    restore_server_state(primary, state)
    primary._manager.checkpoint(primary)
    return ReplicationGroup(
        primary,
        n_replicas=replicas,
        config=ReplicationConfig(staleness_bound=staleness),
    )


def _cmd_query(args) -> int:
    if args.replicas > 0:
        import shutil
        import tempfile

        state_dir = tempfile.mkdtemp(prefix="repro-serving-")
        group = _serving_group(args.snapshot, args.replicas, args.staleness, state_dir)
        try:
            return _answer_query(group, args, group=group)
        finally:
            group.close()
            shutil.rmtree(state_dir, ignore_errors=True)
    return _answer_query(load_server(args.snapshot), args)


def _answer_query(server, args, group=None) -> int:
    qt = server.tnow + args.offset
    result = server.query(
        args.method, qt=qt, l=args.l, rho=args.rho, varrho=args.varrho,
        deadline=args.deadline,
    )
    if result.degraded:
        print(
            f"degraded: {args.method} missed the {args.deadline}s budget, "
            f"answered with {result.stats.method}",
            file=sys.stderr,
        )
    backend = f" [served by {result.served_by}]" if result.served_by else ""
    print(
        f"{result.stats.method} @ qt={qt}: {len(result.regions)} dense rectangles, "
        f"area {result.area():,.1f}, cpu {result.stats.cpu_seconds * 1000:.1f} ms, "
        f"io {result.stats.io_count} pages ({result.stats.io_seconds:.2f} s charged)"
        f"{backend}"
    )
    extra = result.stats.extra
    if "filter_seconds" in extra:
        print(
            f"  stages: filter {extra['filter_seconds'] * 1000:.1f} ms, "
            f"fetch {extra.get('fetch_seconds', 0.0) * 1000:.1f} ms, "
            f"sweep {extra.get('sweep_seconds', 0.0) * 1000:.1f} ms; "
            f"histogram cache {int(extra.get('cache_hits', 0))} hit(s) / "
            f"{int(extra.get('cache_misses', 0))} miss(es)"
        )
    if group is not None:
        status = group.status()
        lags = ", ".join(
            f"{r['name']} lag={r['lag']}" for r in status["replicas"]
        )
        print(
            f"replication: epoch {status['epoch']}, "
            f"acked lsn {status['primary']['acked_lsn']}, {lags}"
        )
    for x1, y1, x2, y2 in result.regions.bounds[: args.max_rects].tolist():
        print(f"  [{x1:.2f}, {x2:.2f}) x [{y1:.2f}, {y2:.2f})")
    remaining = len(result.regions) - args.max_rects
    if remaining > 0:
        print(f"  ... and {remaining} more")
    if args.render:
        print(render_region(result.regions, server.config.domain, 60, 30))
    if args.geojson:
        import json

        print(json.dumps(result.regions.to_geojson()))
    if args.reliability_report:
        import json

        print(json.dumps(server.reliability_report(), default=str), file=sys.stderr)
    return 0


def _cmd_reliability(args) -> int:
    import json

    server = PDRServer.recover(args.state_dir)
    try:
        print(json.dumps(server.reliability_report(), indent=2, default=str))
    finally:
        server.close()
    return 0


def _cmd_verify(args) -> int:
    import json

    from .reliability.integrity import scrub_state_dir, verify_state_dir

    if args.scrub:
        report = scrub_state_dir(args.state_dir)
        for action in report.actions:
            print(f"scrub: {action}")
    else:
        report = verify_state_dir(args.state_dir)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
    return 0 if report.clean else EXIT_VERIFY_FAILED


def _cmd_chaos_process(args) -> int:
    import json
    import os
    import shutil
    import tempfile

    from .reliability.crashpoints import CRASH_SITES
    from .reliability.prochaos import ProcessChaosConfig, run_process_cell

    sites = [args.crashpoint] if args.crashpoint else list(CRASH_SITES)
    workroot = tempfile.mkdtemp(prefix="repro-prochaos-")
    failures = []
    try:
        for site in sites:
            workdir = os.path.join(
                workroot, f"{site.replace('.', '-')}-{args.seed}"
            )
            os.makedirs(workdir, exist_ok=True)
            result = run_process_cell(
                ProcessChaosConfig(site=site, seed=args.seed), workdir
            )
            if result.ok:
                print(
                    f"process-crash: site={site} seed={args.seed} — "
                    f"{result.stats.get('restarts', 0)} restart(s), acked "
                    f"lsn {result.stats.get('max_acked_lsn', 0)}, recovered "
                    f"lsn {result.stats.get('recovered_lsn', 0)}, generation "
                    f"{result.stats.get('client_generation', 0)} — "
                    "oracles green"
                )
            else:
                print(result.format_reproducer(), file=sys.stderr)
                failures.append(result)
        if not failures:
            return 0
        if args.repro_out:
            with open(args.repro_out, "w", encoding="utf-8") as fh:
                json.dump(
                    [f.to_dict() for f in failures], fh, indent=2
                )
            print(f"reproducer written to {args.repro_out}", file=sys.stderr)
        return EXIT_CHAOS_ORACLE_FAILED
    finally:
        shutil.rmtree(workroot, ignore_errors=True)


def _cmd_chaos(args) -> int:
    import json
    import shutil
    import tempfile

    if args.process:
        return _cmd_chaos_process(args)

    from .reliability.chaos import ChaosConfig, ChaosScheduler

    config = ChaosConfig(
        seed=args.seed,
        events=args.events,
        replicas=args.replicas,
        objects=args.objects,
        staleness_bound=args.staleness,
        shrink=not args.no_shrink,
        network=args.network,
        resources=args.resources,
    )
    workdir = tempfile.mkdtemp(prefix="repro-chaos-")
    try:
        result = ChaosScheduler(config, workdir).run()
        if result.ok:
            print(
                f"chaos: seed {result.seed}, {result.events_run} events, "
                f"{result.stats.get('oracle_sweeps', 0)} oracle sweeps, "
                f"{result.stats.get('failovers', 0)} failovers, "
                f"{result.stats.get('repairs', 0)} repairs, "
                f"{result.stats.get('flips', 0)} bit-flips — all oracles green"
            )
            if args.network:
                proxy = result.stats.get("proxy", {})
                wire = result.stats.get("wire", {})
                print(
                    f"network: {proxy.get('connections', 0)} proxied "
                    f"connections, {proxy.get('resets', 0)} resets, "
                    f"{proxy.get('truncations', 0)} truncations, "
                    f"{proxy.get('slowloris', 0)} slow-loris, "
                    f"{proxy.get('stalls', 0)} accept stalls; client retried "
                    f"{wire.get('retries', 0)}x, honored "
                    f"{wire.get('sheds_honored', 0)} shed hint(s), acked lsn "
                    f"{wire.get('max_acked_lsn', 0)} — wire oracles green"
                )
            if args.resources:
                print(
                    f"resources: {result.stats.get('refused_writes', 0)} "
                    "write(s) refused while degraded — read-only mode "
                    "stayed monotone with the budget, no acked write lost"
                )
            return 0
        print(result.format_reproducer(), file=sys.stderr)
        if args.repro_out:
            with open(args.repro_out, "w", encoding="utf-8") as fh:
                json.dump(result.to_dict(), fh, indent=2)
            print(f"reproducer written to {args.repro_out}", file=sys.stderr)
        return EXIT_CHAOS_ORACLE_FAILED
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _boot_verify(state_dir: str, force_recover: bool) -> None:
    """Gate `serve` boot on the integrity verdict of an existing state dir.

    Safe damage (a torn WAL tail from the previous crash, stray ``*.tmp``
    leftovers of an interrupted rename) is repaired in place — that is
    exactly what recovery's replay scan would do anyway.  Real corruption
    is refused (exit 8) unless ``--force-recover`` explicitly accepts the
    quarantine: a supervised child must never silently crash-loop its way
    into serving from a directory whose checksums do not add up.
    """
    from .reliability.integrity import scrub_state_dir, verify_state_dir

    from .telemetry import JOURNAL

    report = verify_state_dir(state_dir)
    corrupt = [f for f in report.damaged() if f.state == "corrupt"]
    if corrupt and not force_recover:
        names = ", ".join(f.name for f in corrupt)
        JOURNAL.emit("boot_refused", artifacts=[f.name for f in corrupt])
        raise IntegrityError(
            f"state dir {state_dir!r} holds corrupt artifact(s): {names}; "
            "refusing to serve from damaged state "
            "(repair/quarantine with `repro verify --scrub`, or accept the "
            "quarantine with `repro serve --force-recover`)"
        )
    if not report.clean or report.stray_tmp():
        repaired = scrub_state_dir(state_dir)
        for action in repaired.actions:
            # journal + stderr: the stderr lines stay for the operator's
            # scrollback, the journal records survive the process
            JOURNAL.emit("boot_scrub", action=action)
            print(f"boot-scrub: {action}", file=sys.stderr)


def _recovered_group(state_dir: str, args):
    """Recover an existing durable directory into a serving group."""
    from .reliability.replication import ReplicationConfig, ReplicationGroup

    _boot_verify(state_dir, args.force_recover)
    primary = PDRServer.recover(state_dir)
    print(
        f"recovered {state_dir} at lsn {primary.wal_lsn}, "
        f"generation {primary.recovery_generation}",
        file=sys.stderr,
    )
    if args.replicas > 0 and primary._manager is not None:
        from .reliability.recovery import load_latest_checkpoint

        # replicas bootstrap from a checkpoint image; make sure one exists
        if load_latest_checkpoint(state_dir) is None:
            primary._manager.checkpoint(primary)
    return ReplicationGroup(
        primary,
        n_replicas=args.replicas,
        config=ReplicationConfig(staleness_bound=args.staleness),
    )


def _cmd_serve(args) -> int:
    import os
    import shutil
    import signal
    import tempfile
    import threading

    from .reliability.crashpoints import arm_from_env
    from .reliability.statedir import holds_state
    from .serving.loadtest import build_serving_group
    from .serving.server import ServerThread, ServingConfig

    armed = arm_from_env()
    if armed:
        print(f"crashpoint armed: {armed}", file=sys.stderr)
    # install the drain handlers before the server (and its health
    # endpoint) exists: a supervisor forwards SIGTERM the moment a
    # probe reports ready, which can be before this function's next
    # few statements have run — the default disposition there would
    # turn a graceful stop into a 143 corpse
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    owned_dir = None
    if args.state_dir is None:
        owned_dir = tempfile.mkdtemp(prefix="repro-serve-")
        state_dir = owned_dir + "/state"
    else:
        state_dir = args.state_dir
    # Bind the process-wide journal before boot so boot-scrub findings
    # and recovery land in it; a supervising parent writes its own
    # journal-<pid> segments into the same directory.
    from .telemetry import JOURNAL

    JOURNAL.bind(os.path.join(state_dir, "journal"), role="serve")
    if args.snapshot is not None:
        group = _serving_group(args.snapshot, args.replicas, args.staleness,
                               state_dir)
    elif holds_state(state_dir):
        # a previous incarnation (crashed or drained) left durable state:
        # serve what it acknowledged, not a fresh workload over it
        group = _recovered_group(state_dir, args)
    else:
        group = build_serving_group(
            state_dir, objects=args.objects, replicas=args.replicas,
            seed=args.seed, staleness=args.staleness,
            admission_rate=args.admission_rate,
            fsync=args.fsync, checkpoint_interval=args.checkpoint_interval,
        )
    JOURNAL.update_context(
        epoch=group.epoch,
        generation=getattr(group.primary, "recovery_generation", 0),
    )
    thread = ServerThread(group, ServingConfig(
        host=args.host, port=args.port, read_timeout=args.read_timeout,
        max_inflight=args.max_inflight, drain_deadline=args.drain_deadline,
    ))
    metrics_server = None
    try:
        thread.start()
        host, port = thread.address
        JOURNAL.emit("serve.ready", port=port, tnow=group.tnow,
                     replicas=len(group.replicas))
        print(f"port={port}", flush=True)
        if args.metrics_port is not None:
            from .telemetry import TELEMETRY, serve_metrics

            metrics_server = serve_metrics(TELEMETRY, port=args.metrics_port)
            print(f"metrics-port={metrics_server.server_address[1]}", flush=True)
        print(
            f"serving on {host}:{port} (epoch {group.epoch}, "
            f"{len(group.replicas)} replica(s), tnow {group.tnow}); "
            f"SIGTERM/Ctrl-C drains",
            file=sys.stderr,
        )
        stop.wait()
        JOURNAL.emit("serve.drain", deadline=args.drain_deadline)
        print(
            f"drain: no new connections; in-flight requests get "
            f"{args.drain_deadline:.1f}s",
            file=sys.stderr,
        )
    finally:
        if metrics_server is not None:
            metrics_server.shutdown()
        thread.stop()
        group.close()
        if owned_dir is not None:
            shutil.rmtree(owned_dir, ignore_errors=True)
    print("drained clean", file=sys.stderr)
    return 0


def _cmd_supervise(args) -> int:
    import signal

    from .serving.supervisor import Supervisor, SupervisorConfig

    serve_args = list(args.serve_args)
    if serve_args and serve_args[0] == "--":
        serve_args = serve_args[1:]
    supervisor = Supervisor(SupervisorConfig(
        serve_args=serve_args,
        host=args.host,
        port=args.port,
        probe_interval=args.probe_interval,
        probe_timeout=args.probe_timeout,
        liveness_failures=args.liveness_failures,
        startup_deadline=args.startup_deadline,
        backoff_initial=args.backoff_initial,
        backoff_max=args.backoff_max,
        crash_loop_threshold=args.crash_loop_threshold,
        crash_loop_window=args.crash_loop_window,
        max_restarts=args.max_restarts,
        graceful_deadline=args.graceful_deadline,
        seed=args.seed,
        arm_crashpoint=args.arm_crashpoint,
        arm_after=args.arm_after,
        arm_torn=args.arm_torn,
    ))
    # SIGTERM/Ctrl-C mean "drain the child and stop", exit 0 — the same
    # contract serve itself honors, one level up
    signal.signal(signal.SIGTERM, lambda *_: supervisor.request_stop())
    signal.signal(signal.SIGINT, lambda *_: supervisor.request_stop())
    return supervisor.run()


def _cmd_loadtest(args) -> int:
    import json
    import shutil
    import tempfile

    from .serving.loadtest import LoadTestConfig, build_serving_group, run_loadtest
    from .serving.server import ServerThread, ServingConfig

    if (args.host is None) != (args.port is None):
        raise InvalidParameterError("--host and --port go together")
    if args.journal_dir is not None:
        from .telemetry import JOURNAL

        JOURNAL.bind(args.journal_dir, role="loadtest")
    config = LoadTestConfig(
        mix=args.mix, mode=args.mode, duration=args.duration, rate=args.rate,
        concurrency=args.concurrency, seed=args.seed, objects=args.objects,
        report_slo_p99_ms=args.report_slo_ms, query_slo_p99_ms=args.query_slo_ms,
        max_failure_ratio=args.max_failure_ratio,
        kill_primary_at=args.kill_primary_at,
        trace_sample=args.trace_sample,
    )
    if args.host is not None:
        if args.kill_primary_at is not None:
            raise InvalidParameterError(
                "--kill-primary-at needs a self-hosted group (drop --host)"
            )
        result = run_loadtest([(args.host, args.port)], config)
    else:
        workdir = tempfile.mkdtemp(prefix="repro-loadtest-")
        group = build_serving_group(
            workdir + "/state", objects=max(args.objects, 32),
            replicas=args.replicas, seed=args.seed,
            admission_rate=args.admission_rate,
        )
        thread = ServerThread(group, ServingConfig()).start()

        def _kill_primary() -> None:
            def _do() -> None:
                group.mark_primary_dead()
                group.failover()
            thread.call(_do)

        try:
            result = run_loadtest([thread.address], config,
                                  kill_primary=_kill_primary)
        finally:
            thread.stop()
            group.close()
            shutil.rmtree(workdir, ignore_errors=True)
    print(result.summary())
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(result.to_dict(), fh, indent=2)
        print(f"full result written to {args.json_out}", file=sys.stderr)
    return 0 if result.ok else EXIT_LOADTEST_FAILED


def _journal_dir(args) -> str:
    import os

    if args.journal_dir is not None:
        return args.journal_dir
    return os.path.join(args.state_dir, "journal")


def _format_journal_record(record: dict) -> str:
    """One human-readable line per record (the `--format text` view)."""
    import time as _time

    known = ("seq", "ts", "perf", "pid", "event", "role", "epoch",
             "generation", "trace_id")
    when = _time.strftime(
        "%H:%M:%S", _time.localtime(record.get("ts", 0.0))
    ) + f".{int((record.get('ts', 0.0) % 1) * 1000):03d}"
    parts = [
        when,
        f"pid={record.get('pid', '?')}",
        f"{record.get('event', '?'):<24s}",
    ]
    for key in ("role", "epoch", "generation", "trace_id"):
        value = record.get(key)
        if value is not None:
            parts.append(f"{key}={value}")
    for key, value in record.items():
        if key in known or value is None:
            continue
        if key == "trace" and isinstance(value, dict):
            parts.append("trace=<tree>")  # full trees go to `repro trace`
            continue
        parts.append(f"{key}={value}")
    return "  ".join(parts)


def _cmd_journal(args) -> int:
    import json

    from .telemetry import read_journal

    event = args.event
    prefix = None
    if event is not None and event.endswith("."):
        prefix, event = event, None
    records = read_journal(
        _journal_dir(args),
        event=event,
        trace_id=args.trace_id,
        since=args.since,
    )
    if prefix is not None:
        records = [
            r for r in records
            if str(r.get("event", "")).startswith(prefix)
        ]
    if args.tail > 0:
        records = records[-args.tail:]
    if args.format == "json":
        print(json.dumps(records, indent=2, default=str))
    else:
        for record in records:
            print(_format_journal_record(record))
    return 0


def _cmd_trace(args) -> int:
    from .telemetry import read_journal, render_span_tree

    directory = _journal_dir(args)
    records = read_journal(directory, trace_id=args.trace_id)
    trees = [
        r["trace"] for r in records
        if r.get("event") == "client_trace" and isinstance(r.get("trace"), dict)
    ]
    if not trees and args.from_path is not None:
        # fall back to a saved telemetry snapshot's slow-query exemplars
        from .telemetry import load_snapshot

        snapshot = load_snapshot(args.from_path)
        for entry in (snapshot.get("slow_queries") or {}).get("entries", []):
            if entry.get("trace_id") == args.trace_id and entry.get("trace"):
                trees.append(entry["trace"])
    if not trees and not records:
        print(f"trace {args.trace_id!r} not found in {directory}",
              file=sys.stderr)
        return 1
    for tree in trees:
        for line in render_span_tree(tree):
            print(line)
    # the journal timeline of the trace (sheds, slow_query, ...) follows
    timeline = [r for r in records if r.get("event") != "client_trace"]
    if timeline:
        print("journal records:")
        for record in timeline:
            print("  " + _format_journal_record(record))
    if not trees:
        print(
            f"no stitched span tree for {args.trace_id!r} (the request "
            "was not sampled); journal records above are all that exists",
            file=sys.stderr,
        )
    return 0


def _merged_quantiles(family: Optional[dict]) -> dict:
    """p50/p95/p99 and count over *all* series of one histogram family.

    Per-series quantiles cannot be averaged; merging the cumulative
    buckets and reading the percentile off the merged distribution is
    the statistically honest aggregation.
    """
    merged: dict = {}
    for series in (family or {}).get("series", []):
        for le, count in series.get("buckets", []):
            key = float("inf") if le == "+Inf" else float(le)
            merged[key] = merged.get(key, 0) + count
    total = merged.get(float("inf"), 0)
    out = {"count": total, "p50": 0.0, "p95": 0.0, "p99": 0.0}
    if total <= 0:
        return out
    bounds = sorted(merged)
    for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
        want = q * total
        for le in bounds:
            if merged[le] >= want:
                out[name] = le if le != float("inf") else bounds[-2]
                break
    return out


def _gauge_value(family: Optional[dict], label: Optional[dict] = None) -> float:
    for series in (family or {}).get("series", []):
        if label is None or all(
            series.get("labels", {}).get(k) == v for k, v in label.items()
        ):
            return float(series.get("value", 0.0))
    return 0.0


def _counter_total(family: Optional[dict]) -> float:
    return sum(
        float(series.get("value", 0.0))
        for series in (family or {}).get("series", [])
    )


def _render_top_frame(families: dict, qps: Optional[float]) -> str:
    lines = []
    readonly = _gauge_value(families.get("repro_readonly")) > 0.0
    epoch = int(_gauge_value(families.get("repro_replication_epoch")))
    lines.append(
        f"repro top — epoch {epoch}  "
        f"state {'READ-ONLY' if readonly else 'serving'}  "
        f"inflight {int(_gauge_value(families.get(SERVING_INFLIGHT.name)))}"
    )
    served = _counter_total(families.get("repro_query_total"))
    qps_text = f"{qps:8.1f}/s" if qps is not None else "       --"
    lines.append(f"queries  total {int(served):>8d}   rate {qps_text}")
    q = _merged_quantiles(families.get("repro_query_seconds"))
    lines.append(
        f"latency  p50 {q['p50'] * 1000.0:8.2f}ms   "
        f"p95 {q['p95'] * 1000.0:8.2f}ms   p99 {q['p99'] * 1000.0:8.2f}ms"
    )
    burn = families.get("repro_slo_burn_rate")
    budget = families.get("repro_slo_budget_remaining")
    for window in ("5s", "60s", "300s"):
        lines.append(
            f"slo {window:>4s}  burn {_gauge_value(burn, {'window': window}):8.2f}   "
            f"budget {_gauge_value(budget, {'window': window}) * 100.0:6.1f}%"
        )
    sheds = _counter_total(families.get("repro_admission_sheds_total"))
    lines.append(
        f"sheds    total {int(sheds):>8d}   "
        f"wal lsn {int(_gauge_value(families.get('repro_wal_lsn')))}"
    )
    return "\n".join(lines)


def _cmd_top(args) -> int:
    import json
    import signal
    import threading
    import time as _time
    import urllib.request

    if args.url is None and args.port is None:
        raise InvalidParameterError("give --url, or --port (with --host)")
    base = args.url if args.url is not None else f"http://{args.host}:{args.port}"
    url = base.rstrip("/") + "/metrics.json"

    def fetch() -> dict:
        with urllib.request.urlopen(url, timeout=5.0) as resp:
            snapshot = json.loads(resp.read().decode("utf-8"))
        return {f["name"]: f for f in snapshot.get("families", [])}

    if args.once:
        print(_render_top_frame(fetch(), qps=None))
        return 0
    stop = threading.Event()
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    prev_total: Optional[float] = None
    prev_at = 0.0
    while not stop.is_set():
        families = fetch()
        now = _time.perf_counter()
        total = _counter_total(families.get("repro_query_total"))
        qps = (
            (total - prev_total) / (now - prev_at)
            if prev_total is not None and now > prev_at
            else None
        )
        prev_total, prev_at = total, now
        # one ANSI clear per frame keeps the view in place like top(1)
        print("\x1b[2J\x1b[H" + _render_top_frame(families, qps), flush=True)
        stop.wait(max(0.1, args.interval))
    return 0


def _probe_workload(seed: int = 7, objects: int = 48) -> None:
    """A tiny seeded workload that exercises every required metric family.

    Durable primary (WAL appends + fsyncs), batched ingest with a wave
    split and a rejected report, one replica behind a link (lag gauges),
    admission control starved down to sheds, and one query per ladder
    method (stage histograms + prefix/block-sum cache traffic).  Runs in
    a throwaway state directory.
    """
    import random
    import shutil
    import tempfile

    from .core.errors import AdmissionRejectedError
    from .reliability.admission import AdmissionConfig
    from .reliability.replication import ReplicationConfig, ReplicationGroup
    from .reliability.validation import ReliabilityConfig

    rng = random.Random(seed)
    workdir = tempfile.mkdtemp(prefix="repro-metrics-")
    try:
        config = SystemConfig()
        primary = PDRServer(
            config,
            expected_objects=objects,
            reliability=ReliabilityConfig(
                state_dir=workdir + "/state", fsync=True
            ),
        )
        domain = config.domain
        batch = [
            (
                oid,
                rng.uniform(domain.x1, domain.x2),
                rng.uniform(domain.y1, domain.y2),
                rng.uniform(-1.0, 1.0),
                rng.uniform(-1.0, 1.0),
            )
            for oid in range(objects)
        ]
        batch.append((0, domain.x1 + 1.0, domain.y1 + 1.0, 0.0, 0.0))  # wave split
        primary.report_batch(batch)
        primary.report(1, float("nan"), 0.0, 0.0, 0.0)  # rejected -> dead letter
        group = ReplicationGroup(
            primary,
            n_replicas=1,
            config=ReplicationConfig(staleness_bound=1_000_000),
            admission=AdmissionConfig(rate=0.001, burst=16.0),
        )
        group.advance_to(1)
        qt = group.tnow + 1
        sheds = 0
        for method in ("fr", "pa", "dh-optimistic", "fr", "fr", "fr", "fr", "fr"):
            try:
                group.query(method, qt=qt, varrho=1.5)
            except AdmissionRejectedError:
                sheds += 1
        if sheds == 0:  # the bucket refilled faster than we drained it
            group.admission.bucket.tokens = 0.0
            try:
                group.query("fr", qt=qt, varrho=1.5)
            except AdmissionRejectedError:
                pass
        group.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _cmd_metrics(args) -> int:
    from .telemetry import (
        TELEMETRY,
        load_snapshot,
        render_json,
        render_prometheus,
        serve_metrics,
    )

    if args.from_path is not None:
        try:
            snapshot = load_snapshot(args.from_path)
        except ValueError as exc:  # malformed JSON maps to a storage failure
            raise StorageError(
                f"unreadable telemetry snapshot {args.from_path!r}: {exc}"
            ) from exc
        slow = snapshot.get("slow_queries")
    else:
        _probe_workload(seed=args.seed)
        snapshot = TELEMETRY.registry.snapshot()
        slow = TELEMETRY.slow_queries.to_dict()
    if args.format == "prometheus":
        text = render_prometheus(snapshot)
    else:
        text = render_json(
            {"families": snapshot.get("families", [])}, slow_queries=slow
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
        print(f"metrics written to {args.out}", file=sys.stderr)
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    if args.serve is not None:
        import signal
        import threading

        server = serve_metrics(TELEMETRY, port=args.serve)
        host, port = server.server_address[:2]
        # the bound port goes to stdout so scripts can `--serve 0` and read
        # it back without racing; the human banner stays on stderr
        print(f"metrics-port={port}", flush=True)
        print(f"serving metrics on http://{host}:{port}/metrics "
              f"(Ctrl-C to stop)", file=sys.stderr)
        stop = threading.Event()
        # a handler (not try/except KeyboardInterrupt) so a SIGINT landing
        # before the wait starts still means "stop serving", exit 0
        signal.signal(signal.SIGINT, lambda *_: stop.set())
        signal.signal(signal.SIGTERM, lambda *_: stop.set())
        try:
            stop.wait()
        finally:
            server.shutdown()
    return 0


def _save_metrics_snapshot(path: str) -> None:
    from .telemetry import TELEMETRY, save_snapshot

    save_snapshot(
        TELEMETRY.registry.snapshot(),
        path,
        slow_queries=TELEMETRY.slow_queries.to_dict(),
    )
    print(f"telemetry snapshot written to {path}", file=sys.stderr)


def _cmd_peaks(args) -> int:
    from .methods.topk import top_k_peaks

    server = load_server(args.snapshot)
    qt = server.tnow + args.offset
    peaks = top_k_peaks(server.pa, qt, k=args.k, separation=args.separation)
    print(f"top {len(peaks)} density peaks @ qt={qt} (objects per sq mile):")
    for rank, peak in enumerate(peaks, start=1):
        print(f"  {rank}. ({peak.x:7.1f}, {peak.y:7.1f})  density {peak.density:.5f}")
    return 0


def _dispatch(args) -> int:
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "peaks":
        return _cmd_peaks(args)
    if args.command == "reliability":
        return _cmd_reliability(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "supervise":
        return _cmd_supervise(args)
    if args.command == "loadtest":
        return _cmd_loadtest(args)
    if args.command == "journal":
        return _cmd_journal(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "report":
        from .experiments.run_all import main as report_main

        return report_main()
    raise AssertionError("unreachable")  # pragma: no cover


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = _dispatch(args)
        if getattr(args, "metrics_out", None):
            _save_metrics_snapshot(args.metrics_out)
        return rc
    except ReproError as exc:
        for cls, code in EXIT_CODES:
            if isinstance(exc, cls):
                print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
                return code
        raise  # pragma: no cover - EXIT_CODES ends with ReproError itself
    except OSError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        # long-running subcommands that *serve* handle SIGINT themselves
        # (drain, exit 0); anywhere else a Ctrl-C is an abandoned run,
        # reported in the shell convention (128 + SIGINT), traceback-free
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
