"""Exporters and the ``repro metrics`` CLI face of the telemetry layer.

Renders are validated with :mod:`tests.prometheus_checker`, the same
line-format checker the CI metrics-smoke job runs against a live scrape,
so a formatting regression fails here before it fails in CI.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import urllib.error
import urllib.request

import pytest

from tests.prometheus_checker import check_prometheus_text
from repro.telemetry import (
    REQUIRED_FAMILIES,
    TELEMETRY,
    MetricsRegistry,
    Telemetry,
    load_snapshot,
    render_json,
    render_prometheus,
    save_snapshot,
    serve_metrics,
)


@pytest.fixture(autouse=True)
def clean_telemetry():
    TELEMETRY.enable()
    TELEMETRY.reset()
    yield
    TELEMETRY.enable()
    TELEMETRY.reset()


def _tiny_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("req_total", "requests", labelnames=("method",)).labels("fr").inc(3)
    reg.gauge("lag", "replication lag").set(1.5)
    hist = reg.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    return reg


class TestPrometheusRendering:
    def test_counter_gauge_histogram_lines(self):
        text = render_prometheus(_tiny_registry().snapshot())
        lines = text.splitlines()
        assert "# TYPE req_total counter" in lines
        assert 'req_total{method="fr"} 3' in lines
        assert "lag 1.5" in lines
        assert 'lat_seconds_bucket{le="0.1"} 1' in lines
        assert 'lat_seconds_bucket{le="1"} 2' in lines
        assert 'lat_seconds_bucket{le="+Inf"} 2' in lines
        assert "lat_seconds_sum 0.55" in lines
        assert "lat_seconds_count 2" in lines
        assert text.endswith("\n")

    def test_counter_name_gains_total_suffix(self):
        reg = MetricsRegistry()
        reg.counter("oops", "no suffix").inc()
        text = render_prometheus(reg.snapshot())
        assert "# TYPE oops_total counter" in text
        assert "\noops_total 1\n" in text

    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c_total", labelnames=("k",)).labels('a"b\\c\nd').inc()
        text = render_prometheus(reg.snapshot())
        assert 'c_total{k="a\\"b\\\\c\\nd"} 1' in text

    def test_render_passes_the_checker(self):
        problems = check_prometheus_text(
            render_prometheus(_tiny_registry().snapshot())
        )
        assert problems == []

    def test_checker_catches_malformed_lines(self):
        assert check_prometheus_text("not a metric line at all\n")
        assert check_prometheus_text(
            "# TYPE x counter\nx_total{l=} 1\n"
        )
        assert check_prometheus_text(
            "", required_families=("repro_query_seconds",)
        ) == [
            "required family repro_query_seconds has no TYPE header",
        ]
        # headers alone do not satisfy a required family
        header_only = (
            "# HELP repro_query_seconds q\n# TYPE repro_query_seconds histogram\n"
        )
        assert check_prometheus_text(
            header_only, required_families=("repro_query_seconds",)
        ) == ["required family repro_query_seconds has no sample lines"]


class TestJsonAndSnapshots:
    def test_render_json_embeds_slow_queries(self):
        payload = json.loads(
            render_json(_tiny_registry().snapshot(), slow_queries={"entries": []})
        )
        assert {f["name"] for f in payload["families"]} == {
            "req_total", "lag", "lat_seconds",
        }
        assert payload["slow_queries"] == {"entries": []}

    def test_save_load_roundtrip_renders_identically(self, tmp_path):
        reg = _tiny_registry()
        path = str(tmp_path / "snap.json")
        save_snapshot(reg.snapshot(), path, slow_queries={"entries": []})
        loaded = load_snapshot(path)
        assert render_prometheus(loaded) == render_prometheus(reg.snapshot())
        assert loaded["slow_queries"] == {"entries": []}

    def test_histogram_snapshot_carries_quantiles(self):
        snap = _tiny_registry().snapshot()
        (hist,) = [f for f in snap["families"] if f["name"] == "lat_seconds"]
        quantiles = hist["series"][0]["quantiles"]
        assert set(quantiles) == {"p50", "p95", "p99"}
        assert 0.0 <= quantiles["p50"] <= 1.0


class TestHTTPEndpoint:
    def test_scrape_and_json_routes(self):
        hub = Telemetry()
        hub.registry.counter("hits_total", "hits").inc(5)
        server = serve_metrics(hub, port=0)
        try:
            port = server.server_address[1]
            body = urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=5
            ).read().decode()
            assert "hits_total 5" in body
            assert check_prometheus_text(body) == []
            payload = json.loads(
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metrics.json", timeout=5
                ).read().decode()
            )
            assert payload["families"][0]["name"] == "hits_total"
            assert "slow_queries" in payload
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/nope", timeout=5
                )
        finally:
            server.shutdown()


_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _subprocess_env() -> dict:
    env = dict(os.environ)
    src = str(_REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return env


def _run_cli(*argv, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True,
        text=True,
        timeout=300,
        env=_subprocess_env(),
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"repro {' '.join(argv)} failed rc={proc.returncode}:\n{proc.stderr}"
        )
    return proc


class TestMetricsCLI:
    def test_probe_scrape_covers_required_families(self):
        proc = _run_cli("metrics", "--format", "prometheus")
        problems = check_prometheus_text(
            proc.stdout, required_families=REQUIRED_FAMILIES
        )
        assert problems == []

    def test_json_format_includes_slow_queries(self):
        proc = _run_cli("metrics", "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["slow_queries"]["entries"]  # the probe ran queries
        names = {f["name"] for f in payload["families"]}
        assert set(REQUIRED_FAMILIES) <= names

    def test_from_snapshot_roundtrip(self, tmp_path):
        snap = str(tmp_path / "world.json")
        metrics = str(tmp_path / "m.json")
        _run_cli(
            "simulate", "--objects", "25",
            "--out", snap, "--metrics-out", metrics,
        )
        proc = _run_cli("metrics", "--from", metrics)
        assert check_prometheus_text(proc.stdout) == []
        # the snapshot carries the full family catalogue
        payload = json.loads(
            _run_cli("metrics", "--from", metrics, "--format", "json").stdout
        )
        assert set(REQUIRED_FAMILIES) <= {f["name"] for f in payload["families"]}

    def test_query_metrics_out_records_the_query(self, tmp_path):
        snap = str(tmp_path / "world.json")
        metrics = str(tmp_path / "q.json")
        _run_cli("simulate", "--objects", "25", "--out", snap)
        _run_cli(
            "query", "--snapshot", snap, "--method", "fr", "--varrho", "1.5",
            "--metrics-out", metrics,
        )
        text = _run_cli("metrics", "--from", metrics).stdout
        assert 'repro_query_total{method="fr",outcome="ok"} 1' in text

    def test_unreadable_snapshot_maps_to_storage_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        proc = _run_cli("metrics", "--from", str(bad), check=False)
        assert proc.returncode == 3  # StorageError
        assert "unreadable telemetry snapshot" in proc.stderr

    def test_out_writes_the_scrape_to_a_file(self, tmp_path):
        out = tmp_path / "scrape.prom"
        _run_cli("metrics", "--out", str(out))
        assert check_prometheus_text(
            out.read_text(), required_families=REQUIRED_FAMILIES
        ) == []

    def test_checker_cli_accepts_the_probe_scrape(self, tmp_path):
        out = tmp_path / "scrape.prom"
        _run_cli("metrics", "--out", str(out))
        proc = subprocess.run(
            [sys.executable, str(_REPO_ROOT / "tests" / "prometheus_checker.py"),
             str(out)],
            capture_output=True,
            text=True,
            timeout=60,
            env=_subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr


def test_top_frame_reads_the_declared_inflight_gauge():
    """``repro top``'s header shows the gauge the front door maintains."""
    from repro.cli import _render_top_frame
    from repro.telemetry import instruments as tm

    for _ in range(3):
        tm.SERVING_INFLIGHT.inc()
    try:
        snapshot = json.loads(render_json(TELEMETRY.registry.snapshot()))
    finally:
        for _ in range(3):
            tm.SERVING_INFLIGHT.dec()
    families = {family["name"]: family for family in snapshot["families"]}
    assert tm.SERVING_INFLIGHT.name in families
    header = _render_top_frame(families, qps=None).splitlines()[0]
    assert header.endswith("inflight 3")
