"""Exporters: Prometheus text format, JSON snapshots, and an HTTP scrape
endpoint.

Both exporters render a registry *snapshot* (the plain-dict image from
:meth:`~repro.telemetry.registry.MetricsRegistry.snapshot`), so the same
code path serves a live registry, a snapshot saved by an earlier process
(``repro query --metrics-out``) and the HTTP handler.

The Prometheus rendering follows the text exposition format 0.0.4:
``# HELP`` / ``# TYPE`` headers per family, counters suffixed
``_total`` (when not already), histograms exploded into cumulative
``_bucket{le=...}`` series plus ``_sum`` and ``_count``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

__all__ = [
    "render_prometheus",
    "render_json",
    "save_snapshot",
    "load_snapshot",
    "MetricsHTTPHandler",
    "serve_metrics",
    "REQUIRED_FAMILIES",
]

# The metric families an instrumented deployment must expose; the CI
# metrics-smoke job fails the scrape when any is missing (see
# tests/prometheus_checker.py).
REQUIRED_FAMILIES = (
    "repro_ingest_reports_total",
    "repro_ingest_waves_total",
    "repro_query_stage_seconds",
    "repro_query_seconds",
    "repro_wal_append_seconds",
    "repro_wal_fsync_seconds",
    "repro_replication_lag_records",
    "repro_histogram_cache_hits_total",
    "repro_histogram_cache_hit_ratio",
    "repro_admission_sheds_total",
    # SLO burn/budget gauges are (re)derived by an on_collect hook at
    # every scrape, so they always carry samples; the events counter is
    # labeled and materialises with the first served query, which every
    # instrumented deployment's probe workload produces
    "repro_slo_events_total",
    "repro_slo_burn_rate",
    "repro_slo_budget_remaining",
    # unlabeled resource gauges exist (at zero) from process start;
    # repro_resource_events_total is labeled and only materialises under
    # actual resource pressure, so it is not required of every scrape
    "repro_state_dir_bytes",
    "repro_wal_segments",
    "repro_readonly",
    "repro_build_info",
)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labels_text(labels: dict, extra: Optional[dict] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in merged.items()
    )
    return "{" + inner + "}"


def _sample_name(family: dict) -> str:
    name = family["name"]
    if family["type"] == "counter" and not name.endswith("_total"):
        name += "_total"
    return name


def render_prometheus(snapshot: dict) -> str:
    """Render a registry snapshot in the Prometheus text format."""
    lines = []
    for family in snapshot.get("families", []):
        name = _sample_name(family)
        kind = family["type"]
        base = name[: -len("_total")] if kind == "counter" else name
        help_text = (family.get("help") or "").replace("\n", " ")
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for series in family.get("series", []):
            labels = series.get("labels", {})
            if kind == "histogram":
                for bound, cumulative in series["buckets"]:
                    le = "+Inf" if bound == "+Inf" else _format_value(float(bound))
                    lines.append(
                        f"{base}_bucket{_labels_text(labels, {'le': le})} "
                        f"{_format_value(cumulative)}"
                    )
                lines.append(
                    f"{base}_sum{_labels_text(labels)} {_format_value(series['sum'])}"
                )
                lines.append(
                    f"{base}_count{_labels_text(labels)} "
                    f"{_format_value(series['count'])}"
                )
            else:
                lines.append(
                    f"{name}{_labels_text(labels)} {_format_value(series['value'])}"
                )
    return "\n".join(lines) + "\n"


def render_json(snapshot: dict, slow_queries: Optional[dict] = None) -> str:
    payload = dict(snapshot)
    if slow_queries is not None:
        payload["slow_queries"] = slow_queries
    return json.dumps(payload, indent=2, sort_keys=True, default=str)


def save_snapshot(snapshot: dict, path: str, slow_queries: Optional[dict] = None) -> None:
    """Persist a snapshot so another process can render it later."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_json(snapshot, slow_queries=slow_queries))
        fh.write("\n")


def load_snapshot(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class MetricsHTTPHandler(BaseHTTPRequestHandler):
    """Scrape endpoint for a live server process.

    Bind a telemetry hub with :meth:`bound_to` (class factory — the
    stdlib HTTP server instantiates handlers per request, so state rides
    on the class), then hand the class to any ``http.server`` server::

        handler = MetricsHTTPHandler.bound_to(TELEMETRY)
        ThreadingHTTPServer(("127.0.0.1", 9100), handler).serve_forever()

    Routes: ``/metrics`` (Prometheus text), ``/metrics.json`` (JSON
    snapshot including the slow-query log).
    """

    telemetry = None  # type: ignore[assignment]

    @classmethod
    def bound_to(cls, telemetry) -> type:
        return type("BoundMetricsHTTPHandler", (cls,), {"telemetry": telemetry})

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler API
        if self.telemetry is None:
            self._respond(500, "text/plain", "no telemetry hub bound\n")
            return
        path = self.path.split("?", 1)[0]
        if path in ("/metrics", "/"):
            body = render_prometheus(self.telemetry.registry.snapshot())
            self._respond(200, "text/plain; version=0.0.4", body)
        elif path == "/metrics.json":
            body = render_json(
                self.telemetry.registry.snapshot(),
                slow_queries=self.telemetry.slow_queries.to_dict(),
            )
            self._respond(200, "application/json", body)
        else:
            self._respond(404, "text/plain", f"unknown path {path!r}\n")

    def _respond(self, status: int, content_type: str, body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # scrapes are high-frequency; never spam stderr


def serve_metrics(telemetry, host: str = "127.0.0.1", port: int = 0):
    """Start a daemon-threaded scrape server; returns the ``HTTPServer``.

    ``port=0`` binds an ephemeral port (``server.server_address[1]``
    tells you which) — handy for tests and for running next to a serving
    process without port planning.  Call ``server.shutdown()`` to stop.
    """
    server = ThreadingHTTPServer((host, port), MetricsHTTPHandler.bound_to(telemetry))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server
