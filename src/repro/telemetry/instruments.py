"""Every metric family the system exposes, declared in one place.

Instrumented modules import the family objects below instead of
re-declaring names ad hoc, so help text, label names and bucket layouts
cannot drift between call sites, and the exporter always knows the full
set (``REQUIRED_FAMILIES`` in :mod:`.exporters` is checked by CI against
a live scrape).

Labeled families materialise a series per label combination on first
use; unlabeled ones exist (at zero) from process start.
"""

from __future__ import annotations

from typing import Optional

from . import TELEMETRY
from .registry import COUNT_BUCKETS
from .slo import SLO

_reg = TELEMETRY.registry

# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------
INGEST_REPORTS = _reg.counter(
    "repro_ingest_reports_total",
    "Location reports by validation outcome",
    labelnames=("outcome",),  # accepted | rejected
)
INGEST_WAVES = _reg.counter(
    "repro_ingest_waves_total", "Batched ingest waves dispatched to listeners"
)
INGEST_WAVE_SIZE = _reg.histogram(
    "repro_ingest_wave_size",
    "Reports per dispatched ingest wave",
    buckets=COUNT_BUCKETS,
)
INGEST_WAVE_SPLITS = _reg.counter(
    "repro_ingest_wave_splits_total",
    "Waves split because an oid repeated within one batch",
)
DEAD_LETTERS = _reg.counter(
    "repro_dead_letters_total", "Reports quarantined by the validator"
)

# ----------------------------------------------------------------------
# query path
# ----------------------------------------------------------------------
QUERIES = _reg.counter(
    "repro_query_total",
    "Queries served, by evaluation method and outcome",
    labelnames=("method", "outcome"),  # outcome: ok | degraded
)
QUERY_SECONDS = _reg.histogram(
    "repro_query_seconds",
    "End-to-end query latency by requested method",
    labelnames=("method",),
)
QUERY_STAGE_SECONDS = _reg.histogram(
    "repro_query_stage_seconds",
    "Per-stage query latency (filter/fuse/fetch/sweep/merge/bnb) by served method",
    labelnames=("method", "stage"),
)
LADDER_FALLBACKS = _reg.counter(
    "repro_query_ladder_fallbacks_total",
    "Degradation-ladder rungs abandoned (deadline or fault), by rung",
    labelnames=("rung",),
)
QUERY_RETRIES = _reg.counter(
    "repro_query_retries_total", "Transient-fault retries spent inside queries"
)

# ----------------------------------------------------------------------
# durability (WAL + checkpoints + recovery)
# ----------------------------------------------------------------------
WAL_APPEND_SECONDS = _reg.histogram(
    "repro_wal_append_seconds", "WAL write+flush latency per append call"
)
WAL_FSYNC_SECONDS = _reg.histogram(
    "repro_wal_fsync_seconds", "WAL fsync latency per append call"
)
WAL_RECORDS = _reg.counter(
    "repro_wal_records_total", "Records durably appended to the WAL"
)
WAL_LSN = _reg.gauge("repro_wal_lsn", "LSN of the last durably appended record")
CHECKPOINTS = _reg.counter("repro_checkpoints_total", "Checkpoints written")
CHECKPOINT_SECONDS = _reg.histogram(
    "repro_checkpoint_seconds", "Full checkpoint duration (write+manifest+rotate)"
)
RECOVERIES = _reg.counter(
    "repro_recoveries_total", "Successful checkpoint+replay recoveries"
)
RECOVERY_GENERATION = _reg.gauge(
    "repro_recovery_generation",
    "Recovery generation of the serving state directory (0 = never recovered)",
)

# ----------------------------------------------------------------------
# process supervision (repro supervise)
# ----------------------------------------------------------------------
SUPERVISOR_RESTARTS = _reg.counter(
    "repro_supervisor_restarts_total",
    "Child server processes restarted after a crash",
)
SUPERVISOR_CRASH_LOOPS = _reg.counter(
    "repro_supervisor_crash_loops_total",
    "Supervision lineages abandoned as crash loops",
)

# ----------------------------------------------------------------------
# replication + failover
# ----------------------------------------------------------------------
REPLICATION_LAG = _reg.gauge(
    "repro_replication_lag_records",
    "Acknowledged records not yet applied, per replica",
    labelnames=("replica",),
)
REPLICATION_APPLIED = _reg.counter(
    "repro_replication_applied_total",
    "Shipped records applied in LSN order, per replica",
    labelnames=("replica",),
)
REPLICATION_APPLY_SECONDS = _reg.histogram(
    "repro_replication_apply_seconds", "Replica drain latency per applied batch"
)
REPLICATION_EPOCH = _reg.gauge(
    "repro_replication_epoch", "Current fencing epoch of the replication group"
)
FAILOVERS = _reg.counter("repro_failovers_total", "Completed failover promotions")
FENCED_REJECTS = _reg.counter(
    "repro_replication_fenced_rejects_total",
    "Shipped records rejected for carrying a stale epoch",
)

# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
ADMISSION_ADMITTED = _reg.counter(
    "repro_admission_admitted_total", "Queries admitted by the front door"
)
ADMISSION_DEGRADED = _reg.counter(
    "repro_admission_degraded_total",
    "Queries admitted at a cheaper rung than requested",
)
ADMISSION_SHEDS = _reg.counter(
    "repro_admission_sheds_total",
    "Queries shed at the front door, by requested cost class",
    labelnames=("method",),
)

# ----------------------------------------------------------------------
# SLO error budget (telemetry.slo)
# ----------------------------------------------------------------------
SLO_EVENTS = _reg.counter(
    "repro_slo_events_total",
    "Query outcomes as the SLO monitor classified them",
    labelnames=("outcome",),  # ok | slow | error | shed
)
SLO_BURN_RATE = _reg.gauge(
    "repro_slo_burn_rate",
    "Error-budget burn rate per rolling window (1.0 = exactly on budget)",
    labelnames=("window",),  # 5s | 60s | 300s
)
SLO_BUDGET_REMAINING = _reg.gauge(
    "repro_slo_budget_remaining",
    "Unspent fraction of the error budget per rolling window",
    labelnames=("window",),
)


def slo_record(latency_seconds: Optional[float] = None, outcome: str = "ok") -> str:
    """Record one query event against the SLO monitor and its counter."""
    kind = SLO.record(latency_seconds=latency_seconds, outcome=outcome)
    SLO_EVENTS.labels(kind).inc()
    return kind


def _export_slo() -> None:
    for window, stats in SLO.snapshot().items():
        label = f"{window}s"
        SLO_BURN_RATE.labels(label).set(stats["burn_rate"])
        SLO_BUDGET_REMAINING.labels(label).set(stats["budget_remaining"])


# burn/budget are scrape-time derived values, like build identity
_export_slo()
_reg.on_collect(_export_slo)

# ----------------------------------------------------------------------
# caches and index maintenance
# ----------------------------------------------------------------------
CACHE_HITS = _reg.counter(
    "repro_histogram_cache_hits_total", "Prefix/block-sum cache hits"
)
CACHE_MISSES = _reg.counter(
    "repro_histogram_cache_misses_total", "Prefix/block-sum cache misses"
)
CACHE_HIT_RATIO = _reg.gauge(
    "repro_histogram_cache_hit_ratio",
    "Lifetime prefix/block-sum cache hit ratio (hits / lookups)",
)
TPR_REPACKS = _reg.counter(
    "repro_tpr_repacks_total",
    "TPR-tree rebuilds on read, by the read that found the tree stale",
    labelnames=("kind",),  # fetch | range_query | validate | shape
)

# ----------------------------------------------------------------------
# resource budgets (disk / memory exhaustion)
# ----------------------------------------------------------------------
STATE_DIR_BYTES = _reg.gauge(
    "repro_state_dir_bytes",
    "Bytes held by the durable state directory (WAL + checkpoints)",
)
WAL_SEGMENTS = _reg.gauge(
    "repro_wal_segments", "WAL segments currently present in the state directory"
)
READONLY = _reg.gauge(
    "repro_readonly",
    "1 while the server is in read-only degraded mode, else 0",
)
RESOURCE_EVENTS = _reg.counter(
    "repro_resource_events_total",
    "Resource-budget lifecycle events",
    # soft_watermark | hard_watermark | readonly_enter | readonly_exit |
    # prune | wal_poisoned | wal_reopened
    labelnames=("event",),
)

# ----------------------------------------------------------------------
# chaos oracles
# ----------------------------------------------------------------------
CHAOS_ORACLES = _reg.counter(
    "repro_chaos_oracle_outcomes_total",
    "Chaos invariant-oracle sweep outcomes",
    labelnames=("outcome",),  # pass | fail
)

# ----------------------------------------------------------------------
# network serving (TCP front door)
# ----------------------------------------------------------------------
CONNECTIONS_ACTIVE = _reg.gauge(
    "repro_connections_active", "TCP connections currently open on the front door"
)
CONNECTIONS_TOTAL = _reg.counter(
    "repro_connections_total",
    "TCP connections closed, by how they ended",
    labelnames=("outcome",),  # closed | reset | timeout | drained
)
SERVING_FRAMES = _reg.counter(
    "repro_serving_frames_total",
    "Protocol frames answered, by operation and outcome",
    labelnames=("op", "outcome"),  # outcome: ok | error
)
SERVING_REQUEST_SECONDS = _reg.histogram(
    "repro_serving_request_seconds",
    "Server-side request latency (frame decoded -> response written)",
    labelnames=("op",),
)
SERVING_INFLIGHT = _reg.gauge(
    "repro_requests_inflight", "Requests currently executing behind the front door"
)
DRAIN_SECONDS = _reg.histogram(
    "repro_drain_duration_seconds",
    "Graceful-drain duration (stop accepting -> all connections closed)",
)

# ----------------------------------------------------------------------
# build identity
# ----------------------------------------------------------------------


def _git_sha() -> str:
    """Best-effort git revision: env override, then .git/HEAD, else unknown."""
    import os

    sha = os.environ.get("REPRO_GIT_SHA")
    if sha:
        return sha[:12]
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))))
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref:"):
            ref = head.split(None, 1)[1]
            with open(os.path.join(root, ".git", ref), encoding="utf-8") as fh:
                return fh.read().strip()[:12]
        return head[:12]
    except OSError:
        return "unknown"


def _build_version() -> str:
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:  # not installed; the pyproject version is canonical
        return "1.0.0"


BUILD_INFO = _reg.gauge(
    "repro_build_info",
    "Build identity (constant 1); version/python/git_sha ride as labels",
    labelnames=("version", "python", "git_sha"),
)


def _set_build_info() -> None:
    import platform

    BUILD_INFO.labels(_build_version(), platform.python_version(), _git_sha()).set(1)


_set_build_info()
# registry.reset() zeroes gauges in place; build identity is constant 1
# by contract, so re-assert it at every snapshot like other scrape-time
# values
_reg.on_collect(_set_build_info)
