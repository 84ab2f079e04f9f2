"""Open/closed-loop load generation against a live front door.

The harness drives one of three traffic mixes through
:class:`~repro.serving.client.ResilientClient` workers and reports
p50/p95/p99 latency per operation class against configured SLOs:

* ``report-heavy`` — 90% location reports, 10% queries (ingest-bound);
* ``query-heavy``  — 20% reports, 80% queries (read-bound);
* ``flash-crowd``  — report-heavy, but the offered load multiplies by
  ``FLASH_FACTOR`` in the middle third of the run (open loop: the
  arrival rate ramps; closed loop: burst workers join) — the overload
  regime where admission sheds and ``retry_after`` honoring earn their
  keep.

**Closed loop** workers issue requests back-to-back: offered load adapts
to service speed, which measures capacity.  **Open loop** workers follow
a precomputed arrival schedule and charge *scheduled-to-done* latency —
queueing delay included — which is what a user behind a flash crowd
actually experiences (the coordinated-omission-free number).

Every worker tracks its acked writes; the run's verdict re-checks the
server's durable position at the end: ``max(acked lsn) <= final WAL
lsn`` is the zero-acked-write-loss criterion, and it must hold even when
``kill_primary_at`` triggers a mid-run failover.
"""

from __future__ import annotations

import dataclasses
import math
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.errors import ClientError, InvalidParameterError, ServingError
from ..telemetry import render_span_tree
from .client import ClientConfig, ResilientClient

__all__ = [
    "LoadTestConfig",
    "LoadTestResult",
    "run_loadtest",
    "build_serving_group",
    "seeded_primary",
    "mount_group",
    "MIXES",
]

# mix name -> (report fraction, query fraction)
MIXES: Dict[str, Tuple[float, float]] = {
    "report-heavy": (0.90, 0.10),
    "query-heavy": (0.20, 0.80),
    "flash-crowd": (0.90, 0.10),
}
# flash-crowd: the load multiplier of the middle third of the run
FLASH_FACTOR = 6.0
# Every generated query: its methods (drawn uniformly), its relative
# threshold and its degradation-ladder budget in seconds.
QUERY_METHODS = ("pa", "fr")
QUERY_VARRHO = 2.0
QUERY_DEADLINE = 0.5
# Ticks a self-hosted group advances after seeding, so every maintained
# structure has state before the first request.
WARMUP_TICKS = 2


@dataclass
class LoadTestConfig:
    """One load-test scenario."""

    mix: str = "report-heavy"
    mode: str = "closed"  # closed | open
    duration: float = 5.0
    rate: float = 100.0  # open loop: offered ops/sec (base, pre-flash)
    concurrency: int = 4  # closed loop: workers (base, pre-flash)
    seed: int = 7
    objects: int = 64  # oid space for generated reports
    report_slo_p99_ms: float = 250.0  # reports own the writer thread; queries
                                      # run on the reader pool and no longer
                                      # queue ahead of them
    query_slo_p99_ms: float = 600.0   # post-band-fusion distribution (fr ~5ms
                                      # harness-sized); trips on a return to
                                      # the per-cell refinement regime
    max_failure_ratio: float = 0.0  # ops allowed to exhaust retries
    kill_primary_at: Optional[float] = None  # seconds into the run
    trace_sample: int = 0  # sample 1-in-N ops for distributed tracing

    def validate(self) -> None:
        if self.mix not in MIXES:
            raise InvalidParameterError(
                f"unknown mix {self.mix!r}; pick one of {sorted(MIXES)}"
            )
        if self.mode not in ("closed", "open"):
            raise InvalidParameterError(
                f"mode must be 'closed' or 'open', got {self.mode!r}"
            )
        if self.duration <= 0:
            raise InvalidParameterError("duration must be positive")


def _percentile(sorted_ms: List[float], q: float) -> float:
    if not sorted_ms:
        return 0.0
    rank = max(0, min(len(sorted_ms) - 1, math.ceil(q * len(sorted_ms)) - 1))
    return sorted_ms[rank]


@dataclass
class LoadTestResult:
    """Latency distributions, failure counts, and the SLO verdict."""

    config: LoadTestConfig
    elapsed: float = 0.0
    latencies_ms: Dict[str, List[float]] = field(default_factory=dict)
    ops: int = 0
    failed_ops: int = 0  # exhausted retries / hard wire errors
    acked_reports: int = 0
    max_acked_lsn: int = 0
    final_wal_lsn: int = 0
    final_epoch: int = 0
    epoch_changes: int = 0
    sheds_honored: int = 0
    sheds_missing_retry_after: int = 0
    retries: int = 0
    client_stats: Dict[str, int] = field(default_factory=dict)
    traces: List[dict] = field(default_factory=list)  # stitched, sampled

    @property
    def acked_write_loss(self) -> int:
        """Acked LSNs beyond the server's final durable position (must be 0)."""
        return max(0, self.max_acked_lsn - self.final_wal_lsn)

    def percentiles(self, kind: str) -> Dict[str, float]:
        data = sorted(self.latencies_ms.get(kind, []))
        return {
            "count": float(len(data)),
            "p50": _percentile(data, 0.50),
            "p95": _percentile(data, 0.95),
            "p99": _percentile(data, 0.99),
            "max": data[-1] if data else 0.0,
        }

    @property
    def failure_ratio(self) -> float:
        return self.failed_ops / self.ops if self.ops else 0.0

    def slo_verdicts(self) -> Dict[str, bool]:
        report_p99 = self.percentiles("report")["p99"]
        query_p99 = self.percentiles("query")["p99"]
        return {
            "report_p99": (not self.latencies_ms.get("report")
                           or report_p99 <= self.config.report_slo_p99_ms),
            "query_p99": (not self.latencies_ms.get("query")
                          or query_p99 <= self.config.query_slo_p99_ms),
            "failure_ratio": self.failure_ratio <= self.config.max_failure_ratio,
            "zero_acked_write_loss": self.acked_write_loss == 0,
            "retry_after_always_present": self.sheds_missing_retry_after == 0,
        }

    @property
    def ok(self) -> bool:
        return all(self.slo_verdicts().values())

    @property
    def worst_trace(self) -> Optional[dict]:
        """The slowest stitched trace sampled during the run, if any."""
        if not self.traces:
            return None
        return max(self.traces, key=lambda t: t.get("duration_seconds", 0.0))

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "mix": self.config.mix,
            "mode": self.config.mode,
            "elapsed_seconds": round(self.elapsed, 3),
            "ops": self.ops,
            "throughput_ops_per_sec": round(self.ops / self.elapsed, 2)
            if self.elapsed else 0.0,
            "failed_ops": self.failed_ops,
            "failure_ratio": round(self.failure_ratio, 6),
            "acked_reports": self.acked_reports,
            "max_acked_lsn": self.max_acked_lsn,
            "final_wal_lsn": self.final_wal_lsn,
            "acked_write_loss": self.acked_write_loss,
            "final_epoch": self.final_epoch,
            "epoch_changes": self.epoch_changes,
            "retries": self.retries,
            "sheds_honored": self.sheds_honored,
            "sheds_missing_retry_after": self.sheds_missing_retry_after,
            "latency_ms": {
                kind: {k: round(v, 3) for k, v in self.percentiles(kind).items()}
                for kind in sorted(self.latencies_ms)
            },
            "slo": {
                "report_p99_ms": self.config.report_slo_p99_ms,
                "query_p99_ms": self.config.query_slo_p99_ms,
                "verdicts": self.slo_verdicts(),
            },
            "client_stats": dict(self.client_stats),
            "traces_sampled": len(self.traces),
            "worst_trace": self.worst_trace,
        }

    def summary(self) -> str:
        lines = [
            f"loadtest {self.config.mix}/{self.config.mode}: "
            f"{self.ops} ops in {self.elapsed:.2f}s "
            f"({self.ops / self.elapsed:.1f} ops/s), "
            f"{self.failed_ops} failed, {self.retries} retries, "
            f"{self.sheds_honored} sheds honored"
        ]
        for kind in sorted(self.latencies_ms):
            p = self.percentiles(kind)
            slo = (self.config.report_slo_p99_ms if kind == "report"
                   else self.config.query_slo_p99_ms)
            lines.append(
                f"  {kind:7s} n={int(p['count']):6d}  "
                f"p50={p['p50']:8.2f}ms  p95={p['p95']:8.2f}ms  "
                f"p99={p['p99']:8.2f}ms (SLO {slo:.0f}ms) "
                f"{'OK' if p['p99'] <= slo or not p['count'] else 'VIOLATED'}"
            )
        lines.append(
            f"  acked writes: {self.acked_reports} "
            f"(max lsn {self.max_acked_lsn}, final WAL {self.final_wal_lsn}, "
            f"loss {self.acked_write_loss}); epoch {self.final_epoch} "
            f"({self.epoch_changes} change(s) observed)"
        )
        lines.append(f"  verdict: {'PASS' if self.ok else 'FAIL'} "
                     f"{self.slo_verdicts()}")
        if self.traces:
            lines.append(f"  traces sampled: {len(self.traces)}")
        # an SLO miss with sampled traces gets its worst offender printed
        # stitched — the first question ("where did the time go?") is
        # answered without leaving the loadtest output
        worst = self.worst_trace
        if worst is not None and not self.ok:
            lines.append(
                f"  worst sampled trace ({worst.get('trace_id', '?')}):"
            )
            lines.extend("    " + line for line in render_span_tree(worst))
        return "\n".join(lines)


class _Worker:
    """One traffic-generating thread with its own client and rng."""

    def __init__(self, worker_id: int, endpoints, config: LoadTestConfig,
                 client_config: ClientConfig,
                 window: Optional[Tuple[float, float]] = None,
                 arrivals: Optional[List[float]] = None) -> None:
        self.worker_id = worker_id
        self.config = config
        self.client = ResilientClient(endpoints, config=client_config)
        self.rng = random.Random((config.seed << 16) ^ worker_id)
        self.window = window  # closed loop: (start_offset, end_offset)
        self.arrivals = arrivals  # open loop: absolute offsets
        self.latencies: Dict[str, List[float]] = {"report": [], "query": []}
        self.ops = 0
        self.failed = 0
        self.thread = threading.Thread(
            target=self._run_guarded, name=f"loadgen-{worker_id}", daemon=True
        )
        self.error: Optional[BaseException] = None
        self._t0 = 0.0
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    def start(self, t0: float) -> None:
        self._t0 = t0
        self.thread.start()

    def stop(self) -> None:
        self._stop.set()

    def join(self) -> None:
        self.thread.join(timeout=self.config.duration + 30.0)

    def _run_guarded(self) -> None:
        try:
            if self.arrivals is not None:
                self._run_open()
            else:
                self._run_closed()
        except BaseException as exc:  # surfaced by the harness
            self.error = exc
        finally:
            self.client.close()

    # ------------------------------------------------------------------
    def _one_op(self) -> Tuple[str, bool]:
        report_frac, _ = MIXES[self.config.mix]
        cfg = self.config
        if self.rng.random() < report_frac:
            kind = "report"
            call = lambda: self.client.report(  # noqa: E731
                self.rng.randrange(cfg.objects),
                self.rng.uniform(2.0, 98.0) * 10.0,
                self.rng.uniform(2.0, 98.0) * 10.0,
                self.rng.uniform(-1.0, 1.0),
                self.rng.uniform(-1.0, 1.0),
            )
        else:
            kind = "query"
            method = QUERY_METHODS[self.rng.randrange(len(QUERY_METHODS))]
            call = lambda: self.client.query(  # noqa: E731
                method, qt_offset=self.rng.randrange(0, 2),
                varrho=QUERY_VARRHO, deadline=QUERY_DEADLINE,
                max_regions=8,  # percentiles need timing, not geometry
            )
        try:
            call()
            return kind, True
        except (ClientError, ServingError):
            return kind, False

    def _record(self, kind: str, ok: bool, latency_s: float) -> None:
        self.ops += 1
        if ok:
            self.latencies[kind].append(latency_s * 1000.0)
        else:
            self.failed += 1

    def _run_closed(self) -> None:
        start_off, end_off = self.window or (0.0, self.config.duration)
        now = time.perf_counter() - self._t0
        if now < start_off:
            time.sleep(start_off - now)
        while not self._stop.is_set():
            now = time.perf_counter() - self._t0
            if now >= end_off:
                break
            t0 = time.perf_counter()
            kind, ok = self._one_op()
            self._record(kind, ok, time.perf_counter() - t0)

    def _run_open(self) -> None:
        for offset in self.arrivals or []:
            if self._stop.is_set():
                break
            now = time.perf_counter() - self._t0
            if now < offset:
                time.sleep(offset - now)
            # open loop charges from the *scheduled* arrival: queueing
            # delay behind a slow server counts against the latency SLO
            scheduled = self._t0 + offset
            kind, ok = self._one_op()
            self._record(kind, ok, time.perf_counter() - scheduled)


def _open_loop_arrivals(config: LoadTestConfig) -> List[float]:
    """The deterministic arrival schedule (flash-crowd ramp included)."""
    arrivals: List[float] = []
    t = 0.0
    third = config.duration / 3.0
    while t < config.duration:
        rate = config.rate
        if config.mix == "flash-crowd" and third <= t < 2 * third:
            rate *= FLASH_FACTOR
        arrivals.append(t)
        t += 1.0 / rate
    return arrivals


def run_loadtest(
    endpoints: Sequence[Tuple[str, int]],
    config: Optional[LoadTestConfig] = None,
    client_config: Optional[ClientConfig] = None,
    kill_primary: Optional[Callable[[], None]] = None,
) -> LoadTestResult:
    """Drive one scenario against ``endpoints`` and collect the verdict.

    ``kill_primary`` (with ``config.kill_primary_at``) is invoked once,
    mid-run, from a control thread — the hook the CLI and tests use to
    fail the primary over under live load.
    """
    config = config or LoadTestConfig()
    config.validate()
    client_config = client_config or ClientConfig(
        connect_timeout=2.0, request_timeout=10.0, max_attempts=10,
        backoff_base=0.02, backoff_cap=0.5, seed=config.seed,
    )
    if config.trace_sample and not client_config.trace_sample:
        client_config = dataclasses.replace(
            client_config, trace_sample=config.trace_sample
        )

    workers: List[_Worker] = []
    if config.mode == "open":
        arrivals = _open_loop_arrivals(config)
        n = max(1, config.concurrency)
        per_worker: List[List[float]] = [arrivals[i::n] for i in range(n)]
        for i, schedule in enumerate(per_worker):
            workers.append(_Worker(i, endpoints, config, client_config,
                                   arrivals=schedule))
    else:
        third = config.duration / 3.0
        for i in range(max(1, config.concurrency)):
            workers.append(_Worker(i, endpoints, config, client_config,
                                   window=(0.0, config.duration)))
        if config.mix == "flash-crowd":
            burst = max(1, int(config.concurrency * (FLASH_FACTOR - 1)))
            for j in range(burst):
                workers.append(_Worker(
                    1000 + j, endpoints, config, client_config,
                    window=(third, 2 * third),
                ))

    t0 = time.perf_counter()
    for worker in workers:
        worker.start(t0)

    killer_error: List[BaseException] = []
    if config.kill_primary_at is not None and kill_primary is not None:
        def _kill() -> None:
            time.sleep(config.kill_primary_at)
            try:
                kill_primary()
            except BaseException as exc:
                killer_error.append(exc)
        killer = threading.Thread(target=_kill, name="primary-killer",
                                  daemon=True)
        killer.start()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - t0

    result = LoadTestResult(config=config, elapsed=elapsed)
    merged_stats: Dict[str, int] = {}
    for worker in workers:
        if worker.error is not None:
            raise worker.error
        result.ops += worker.ops
        result.failed_ops += worker.failed
        for kind, values in worker.latencies.items():
            result.latencies_ms.setdefault(kind, []).extend(values)
        client = worker.client
        result.acked_reports += client.acked_reports
        result.max_acked_lsn = max(result.max_acked_lsn, client.max_acked_lsn)
        result.epoch_changes += client.stats.get("epoch_changes", 0)
        result.sheds_honored += client.stats.get("sheds_honored", 0)
        result.sheds_missing_retry_after += client.sheds_missing_retry_after
        result.retries += client.stats.get("retries", 0)
        result.traces.extend(client.traces)
        for key, value in client.stats.items():
            merged_stats[key] = merged_stats.get(key, 0) + value
    result.client_stats = merged_stats
    if killer_error:
        raise killer_error[0]

    # the acked-write-loss verdict needs the server's final position
    with ResilientClient(endpoints, config=client_config) as probe:
        health = probe.health()
        result.final_wal_lsn = int(health.get("lsn", 0))
        result.final_epoch = int(health.get("epoch", 0))
    return result


def build_serving_group(
    state_dir: str,
    objects: int = 200,
    replicas: int = 2,
    seed: int = 7,
    staleness: int = 1_000_000,
    admission_rate: Optional[float] = None,
    fsync: bool = False,
    checkpoint_interval: int = 0,
):
    """A durable, warmed :class:`ReplicationGroup` for self-hosted runs:
    :func:`seeded_primary` mounted by :func:`mount_group`.  The caller
    owns ``state_dir`` and must ``close()`` the group."""
    primary = seeded_primary(state_dir, objects, seed, fsync, checkpoint_interval)
    return mount_group(primary, replicas, staleness, admission_rate)


def seeded_primary(
    state_dir: str,
    objects: int = 200,
    seed: int = 7,
    fsync: bool = False,
    checkpoint_interval: int = 0,
):
    """A durable primary holding ``objects`` seeded moving objects over
    the default domain, advanced :data:`WARMUP_TICKS` ticks, and armed
    with the environment's crash rule
    (:meth:`~repro.reliability.faults.FaultInjector.from_env`)."""
    from ..core.config import SystemConfig
    from ..core.geometry import Rect
    from ..core.system import PDRServer
    from ..reliability.faults import FaultInjector
    from ..reliability.validation import ReliabilityConfig

    rng = random.Random(seed)
    # harness-sized evaluation knobs: the full-paper defaults put a PA
    # query at ~600ms, which — behind the single backend thread — makes
    # the load test measure one slow query, not the serving tier.  These
    # keep pa ~10ms / fr ~50ms so percentiles reflect queueing + wire.
    config = SystemConfig(
        domain=Rect(0.0, 0.0, 1000.0, 1000.0),
        max_update_interval=30,
        prediction_window=30,
        l=100.0,
        histogram_cells=30,
        polynomial_grid=5,
        polynomial_degree=4,
        evaluation_grid=64,
    )
    primary = PDRServer(
        config,
        expected_objects=objects,
        reliability=ReliabilityConfig(
            state_dir=state_dir, fsync=fsync,
            checkpoint_interval=checkpoint_interval,
            faults=FaultInjector.from_env(),
        ),
    )
    domain = config.domain
    primary.report_batch([
        (
            oid,
            rng.uniform(domain.x1 + 1.0, domain.x2 - 1.0),
            rng.uniform(domain.y1 + 1.0, domain.y2 - 1.0),
            rng.uniform(-1.0, 1.0),
            rng.uniform(-1.0, 1.0),
        )
        for oid in range(objects)
    ])
    for _ in range(WARMUP_TICKS):
        primary.advance_to(primary.tnow + 1)
    return primary


def mount_group(
    primary,
    replicas: int,
    staleness: int,
    admission_rate: Optional[float] = None,
):
    """Mount a durable ``primary`` as a :class:`ReplicationGroup`.

    ``replicas`` replicas read within ``staleness`` LSNs; a rate mounts
    the admission controller with a bucket of two seconds' tokens.
    """
    from ..reliability.admission import AdmissionConfig
    from ..reliability.replication import ReplicationGroup

    admission = None
    if admission_rate is not None:
        admission = AdmissionConfig(rate=admission_rate, burst=2.0 * admission_rate)
    return ReplicationGroup(
        primary,
        n_replicas=replicas,
        staleness_bound=staleness,
        admission=admission,
    )
