"""Unified observability: metrics registry, tracing, slow-query log, exporters.

One process-wide :class:`Telemetry` hub (:data:`TELEMETRY`) owns

* a :class:`~repro.telemetry.registry.MetricsRegistry` of counters,
  gauges and fixed-bucket latency histograms,
* a :class:`~repro.telemetry.tracing.Tracer` building per-query span
  trees (admission -> rung -> filter/fetch/sweep or bnb),
* a :class:`~repro.telemetry.slowlog.SlowQueryLog` retaining the worst
  traces as replayable exemplars,

and the exporters (:mod:`.exporters`) render it as Prometheus text or a
JSON snapshot — via ``repro metrics`` offline or ``MetricsHTTPHandler``
live.

Telemetry is **on by default and cheap**: every instrument mutation is
one branch plus one float op when enabled, and just the branch when
disabled (``REPRO_TELEMETRY=0`` in the environment, or
``TELEMETRY.disable()``).  ``benchmarks/perf_gate.py`` gates the
enabled-vs-disabled throughput ratio at an absolute floor of 0.90.

Instrumented modules resolve their instruments once at import time::

    from ..telemetry import TELEMETRY
    _WAVES = TELEMETRY.registry.counter("repro_ingest_waves_total", "...")

which stays valid forever — ``Telemetry.reset()`` zeroes values in place
without replacing instrument objects.
"""

from __future__ import annotations

import os

from .exporters import (
    MetricsHTTPHandler,
    REQUIRED_FAMILIES,
    load_snapshot,
    render_json,
    render_prometheus,
    save_snapshot,
    serve_metrics,
)
from .journal import JOURNAL, Journal, read_journal
from .registry import (
    COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from .slo import SLO, SLOMonitor
from .slowlog import SlowQueryEntry, SlowQueryLog
from .tracing import (
    NOOP_SPAN,
    Span,
    Tracer,
    new_span_id,
    new_trace_id,
    render_span_tree,
)

__all__ = [
    "Telemetry",
    "TELEMETRY",
    "MetricsRegistry",
    "MetricFamily",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "Span",
    "NOOP_SPAN",
    "new_span_id",
    "new_trace_id",
    "render_span_tree",
    "SlowQueryLog",
    "SlowQueryEntry",
    "Journal",
    "JOURNAL",
    "read_journal",
    "SLOMonitor",
    "SLO",
    "MetricsHTTPHandler",
    "serve_metrics",
    "render_prometheus",
    "render_json",
    "save_snapshot",
    "load_snapshot",
    "REQUIRED_FAMILIES",
    "DEFAULT_LATENCY_BUCKETS",
    "COUNT_BUCKETS",
]


class Telemetry:
    """The observability hub: registry + tracer + slow-query log."""

    def __init__(self, enabled: bool = True) -> None:
        self.registry = MetricsRegistry(enabled=enabled)
        self.tracer = Tracer(enabled=enabled)
        self.slow_queries = SlowQueryLog()

    @property
    def enabled(self) -> bool:
        return self.registry.enabled

    def enable(self) -> None:
        self.registry.enabled = True
        self.tracer.enabled = True

    def disable(self) -> None:
        self.registry.enabled = False
        self.tracer.enabled = False

    def reset(self) -> None:
        """Zero all metric values and drop slow-log entries, in place."""
        self.registry.reset()
        self.slow_queries.clear()
        SLO.reset()

    def note_query(self, span, result, *, requested_method: str) -> None:
        """Offer a finished *local-root* query span to the slow-query log.

        Nested spans (a replica query inside a group trace) are skipped —
        the local-root owner offers the whole trace once, so one served
        query never produces two exemplars.  A local root is a true root
        or the first span under an adopted wire boundary (see
        :mod:`.tracing`) — queries arriving over TCP still get exemplars.
        Retained entries carry the trace id and a ``slow_query`` journal
        seq so ``repro trace`` can join log, journal and span tree.
        """
        if span is NOOP_SPAN or not (span.local_root or span.is_root):
            return
        query = result.query
        if query is None:
            return
        if not self.slow_queries.would_retain(span.duration):
            self.slow_queries.note_skipped()
            return  # fast path: don't serialize trees that can't be retained
        entry = SlowQueryEntry(
            duration_seconds=span.duration,
            method=result.stats.method,
            requested_method=requested_method,
            qt=query.qt,
            l=query.l,
            rho=query.rho,
            degraded=result.degraded,
            served_by=result.served_by,
            trace=span.to_dict(),
            trace_id=span.trace_id,
        )
        if self.slow_queries.offer(entry):
            entry.journal_seq = JOURNAL.emit(
                "slow_query",
                trace_id=span.trace_id,
                duration_ms=round(span.duration * 1000.0, 3),
                method=result.stats.method,
                requested_method=requested_method,
                qt=query.qt,
                l=query.l,
                rho=query.rho,
                degraded=result.degraded,
            )


def _env_enabled() -> bool:
    return os.environ.get("REPRO_TELEMETRY", "1").strip().lower() not in (
        "0", "false", "off", "no",
    )


#: The process-wide hub every instrumented module shares.
TELEMETRY = Telemetry(enabled=_env_enabled())
