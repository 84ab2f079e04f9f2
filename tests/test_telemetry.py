"""Unit and property tests for the telemetry layer.

Covers the metrics registry (counters/gauges/histograms, labels, reset
in place, the disabled fast path), the tracer (nesting, the no-op
degradations, the timing invariant), the slow-query log (retention
order, replayable exemplars) and the two contractual properties from the
observability work:

* child span durations sum to at most the parent duration, and
* the ``stage_seconds`` view in ``reliability_report`` is the sum of the
  served queries' ``stats.extra["<stage>_seconds"]`` — the one stage record,
  which the trace leaves merely render — with telemetry on or off.
"""

from __future__ import annotations

import contextlib
import math
import os
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import populate_clustered, small_system_config
from repro import PDRServer
from repro.reliability.validation import ReliabilityConfig
from repro.telemetry import (
    TELEMETRY,
    MetricsRegistry,
    SlowQueryEntry,
    SlowQueryLog,
    Tracer,
)
from repro.telemetry import slowlog
from repro.telemetry.tracing import NOOP_SPAN


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Zero the process-wide hub around every test; leave it enabled."""
    TELEMETRY.enable()
    TELEMETRY.reset()
    yield
    TELEMETRY.enable()
    TELEMETRY.reset()


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_counts_and_refuses_to_go_down(self):
        reg = MetricsRegistry()
        c = reg.counter("events_total", "events")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("lag")
        g.set(10)
        g.dec(4)
        g.inc(1)
        assert g.value == 7.0

    def test_histogram_buckets_sum_count_quantiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(6.05)
        # p50 lands in the (0.1, 1.0] bucket, interpolated
        assert 0.1 <= h.quantile(0.5) <= 1.0
        # overflow observations clamp to the top bound
        h.observe(1000.0)
        assert h.quantile(1.0) == 10.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_histogram_empty_quantile_is_nan(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        assert math.isnan(h.quantile(0.5))
        assert math.isnan(h.mean)

    def test_histogram_rejects_unsorted_bounds(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("bad", buckets=(1.0, 1.0, 2.0))

    def test_family_creation_is_idempotent_and_kind_checked(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "first")
        b = reg.counter("x_total", "second help ignored")
        assert a is b
        with pytest.raises(ValueError):
            reg.gauge("x_total")

    def test_labels_resolve_children_positionally_and_by_name(self):
        reg = MetricsRegistry()
        fam = reg.counter("q_total", labelnames=("method", "outcome"))
        fam.labels("fr", "ok").inc()
        fam.labels(method="fr", outcome="ok").inc()
        assert fam.labels("fr", "ok").value == 2.0
        with pytest.raises(ValueError):
            fam.labels("fr")  # wrong arity
        with pytest.raises(ValueError):
            fam.labels("fr", outcome="ok")  # mixed styles

    def test_disabled_registry_is_a_noop(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("c_total")
        g = reg.gauge("g")
        h = reg.histogram("h")
        c.inc()
        g.set(5)
        h.observe(1.0)
        assert c.value == 0.0 and g.value == 0.0 and h.count == 0

    def test_reset_zeroes_in_place_preserving_identity(self):
        reg = MetricsRegistry()
        fam = reg.counter("c_total", labelnames=("k",))
        child = fam.labels("a")
        child.inc(7)
        hist = reg.histogram("h")
        hist.observe(0.5)
        reg.reset()
        assert fam.labels("a") is child  # same object, zeroed
        assert child.value == 0.0
        assert hist.count == 0 and hist.sum == 0.0

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "help here", labelnames=("k",)).labels("a").inc()
        snap = reg.snapshot()
        (family,) = snap["families"]
        assert family["name"] == "c_total"
        assert family["type"] == "counter"
        assert family["series"] == [{"labels": {"k": "a"}, "value": 1.0}]


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_trace_nests_into_a_tree(self):
        tracer = Tracer()
        with tracer.trace("query", method="fr") as root:
            with tracer.trace("rung") as rung:
                tracer.record_span("filter", 0.25)
        assert root.is_root and not rung.is_root
        assert [c.name for c in root.children] == ["rung"]
        assert rung.stages["filter"] == {"count": 1, "seconds": 0.25}
        assert root.trace_id == rung.trace_id
        assert root.duration >= rung.duration

    def test_span_without_open_trace_is_noop(self):
        tracer = Tracer()
        with tracer.span("orphan") as span:
            pass
        assert span is NOOP_SPAN
        tracer.record_span("orphan", 1.0)  # silently dropped
        assert tracer.current() is None

    def test_disabled_tracer_returns_noop(self):
        tracer = Tracer(enabled=False)
        with tracer.trace("query") as span:
            pass
        assert span is NOOP_SPAN

    def test_exception_annotates_span_and_pops_stack(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.trace("query") as root:
                raise RuntimeError("boom")
        assert root.attrs["error"] == "RuntimeError"
        assert tracer.current() is None

    def test_record_span_aggregates_counts_and_numeric_attrs(self):
        tracer = Tracer()
        with tracer.trace("query") as root:
            tracer.record_span("fetch", 0.1, objects=7)
            tracer.record_span("fetch", 0.2, objects=5)
        assert root.stages["fetch"] == {
            "count": 2, "seconds": 0.1 + 0.2, "objects": 12,
        }
        assert root.children == []  # aggregated, not materialized

    def test_thread_local_stacks_do_not_cross(self):
        tracer = Tracer()
        seen = {}

        def other():
            seen["current"] = tracer.current()

        with tracer.trace("query"):
            thread = threading.Thread(target=other)
            thread.start()
            thread.join()
        assert seen["current"] is None

    def test_walk_and_to_dict_round_trip_shape(self):
        tracer = Tracer()
        with tracer.trace("query") as root:
            tracer.record_span("filter", 0.1)
            with tracer.trace("rung"):
                pass
        names = [s.name for s in root.walk()]
        assert names == ["query", "rung"]
        payload = root.to_dict()
        assert payload["name"] == "query"
        assert payload["stages"]["filter"]["seconds"] == 0.1
        assert payload["children"][0]["name"] == "rung"
        assert payload["children"][0]["parent_id"] == root.span_id


_TREE = st.recursive(
    st.just([]), lambda child: st.lists(child, max_size=3), max_leaves=12
)


class TestSpanTimingProperty:
    @settings(max_examples=40, deadline=None)
    @given(shape=_TREE)
    def test_child_durations_sum_to_at_most_parent(self, shape):
        tracer = Tracer()

        def build(children):
            with tracer.trace("node") as span:
                for grandchildren in children:
                    build(grandchildren)
            return span

        root = build(shape)
        for span in root.walk():
            child_sum = sum(c.duration for c in span.children)
            assert child_sum <= span.duration + 1e-9


# ----------------------------------------------------------------------
# slow-query log
# ----------------------------------------------------------------------
def _entry(duration: float, method: str = "fr") -> SlowQueryEntry:
    return SlowQueryEntry(
        duration_seconds=duration,
        method=method,
        requested_method=method,
        qt=10,
        l=10.0,
        rho=0.5,
    )


@contextlib.contextmanager
def _slow_log(capacity: int):
    """A fresh slow-query log retaining ``capacity`` entries."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(slowlog, "CAPACITY", capacity)
        yield SlowQueryLog()


class TestSlowQueryLog:
    def test_keeps_the_n_worst_in_slowest_first_order(self):
        with _slow_log(3) as log:
            for d in (0.1, 0.5, 0.2, 0.9, 0.05, 0.3):
                log.offer(_entry(d))
            durations = [e.duration_seconds for e in log.entries()]
        assert durations == [0.9, 0.5, 0.3]
        assert log.offered == 6
        assert len(log) == 3

    def test_would_retain_matches_offer(self):
        with _slow_log(2) as log:
            assert log.would_retain(0.0)  # not yet full
            log.offer(_entry(0.5))
            log.offer(_entry(0.6))
            assert not log.would_retain(0.5)  # ties lose
            assert log.would_retain(0.7)
            assert log.threshold_seconds == 0.5

    def test_note_skipped_counts_offers(self):
        with _slow_log(1) as log:
            log.note_skipped()
        assert log.offered == 1 and len(log) == 0

    def test_to_dict_and_replay_kwargs(self):
        with _slow_log(4) as log:
            log.offer(_entry(0.25, method="pa"))
            payload = log.to_dict()
        assert payload["capacity"] == 4
        (entry,) = payload["entries"]
        assert entry["method"] == "pa"
        assert _entry(0.25, "pa").replay_kwargs() == {
            "method": "pa", "qt": 10, "l": 10.0, "rho": 0.5,
        }

    @settings(max_examples=30, deadline=None)
    @given(
        durations=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            max_size=30,
        ),
        capacity=st.integers(min_value=1, max_value=8),
    )
    def test_retention_equals_sorted_tail(self, durations, capacity):
        with _slow_log(capacity) as log:
            for d in durations:
                log.offer(_entry(d))
            kept = [e.duration_seconds for e in log.entries()]
        # multiset of the capacity largest (ties broken arbitrarily)
        expected = sorted(durations, reverse=True)[:capacity]
        assert sorted(kept, reverse=True) == pytest.approx(expected)


# ----------------------------------------------------------------------
# end-to-end: stage_seconds compatibility + exemplar replay
# ----------------------------------------------------------------------
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _populated():
    server = PDRServer(small_system_config(), expected_objects=200)
    populate_clustered(server, 120)
    return server


class TestStageSecondsCompatibility:
    def test_trace_totals_equal_extras_bit_for_bit(self):
        """Each stage is timed once: the trace leaf renders the float that
        ``stats.extra`` records, under the rung that ran the method."""
        server = _populated()
        qt = server.tnow + 1
        for method, stages in (
            ("fr", ("filter", "fuse", "fetch", "sweep", "merge")),
            ("pa", ("bnb",)),
        ):
            with TELEMETRY.tracer.trace("capture") as outer:
                result = server.query(method, qt=qt, varrho=1.2)
            (query_span,) = outer.children
            (rung,) = query_span.children
            assert rung.name == "rung" and rung.attrs["method"] == method
            assert set(rung.stages) == set(stages)
            for stage in stages:
                leaf = rung.stages[stage]
                assert leaf["count"] == 1
                assert leaf["seconds"] == result.stats.extra[f"{stage}_seconds"]

    def test_report_view_equals_trace_accumulation_on_seeded_workload(self):
        """The report's stage_seconds equal hand-accumulated extras exactly."""
        server = _populated()
        qt = server.tnow + 1
        accumulated = {
            "filter": 0.0,
            "fuse": 0.0,
            "fetch": 0.0,
            "sweep": 0.0,
            "merge": 0.0,
        }
        for varrho in (0.6, 0.9, 1.1, 1.4, 1.9, 2.5):
            result = server.query("fr", qt=qt, varrho=varrho)
            for stage in accumulated:
                accumulated[stage] += result.stats.extra.get(
                    f"{stage}_seconds", 0.0
                )
        view = server.reliability_report()["query_stage_seconds"]
        assert view == accumulated  # bit-for-bit: same floats, same order

    def test_report_view_equals_extras_under_repro_telemetry_0(self):
        """The same equality in a process started with ``REPRO_TELEMETRY=0``
        (no trace exists there: the extras are the only record)."""
        script = (
            "from tests.conftest import populate_clustered, small_system_config\n"
            "from repro import PDRServer\n"
            "from repro.telemetry import TELEMETRY\n"
            "assert not TELEMETRY.enabled\n"
            "server = PDRServer(small_system_config(), expected_objects=200)\n"
            "populate_clustered(server, 120)\n"
            "stages = ('filter', 'fuse', 'fetch', 'sweep', 'merge')\n"
            "total = dict.fromkeys(stages, 0.0)\n"
            "for method, varrho in (('fr', 0.9), ('pa', 1.1), ('fr', 1.4), ('fr', 2.5)):\n"
            "    extra = server.query(method, qt=server.tnow + 1, varrho=varrho).stats.extra\n"
            "    for stage in stages:\n"
            "        total[stage] += extra.get(stage + '_seconds', 0.0)\n"
            "assert total['sweep'] > 0.0\n"
            "assert server.reliability_report()['query_stage_seconds'] == total\n"
        )
        env = dict(
            os.environ,
            REPRO_TELEMETRY="0",
            PYTHONPATH=os.pathsep.join(
                [os.path.join(_REPO_ROOT, "src"), os.environ.get("PYTHONPATH", "")]
            ),
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, cwd=_REPO_ROOT,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr

    def test_disabled_telemetry_still_populates_the_report(self):
        TELEMETRY.disable()
        try:
            server = _populated()
            result = server.query("fr", qt=server.tnow + 1, varrho=1.2)
            report = server.reliability_report()
            assert report["queries_served"] == 1
            assert (
                report["query_stage_seconds"]["filter"]
                == result.stats.extra["filter_seconds"]
            )
            # and the registry saw nothing
            fam = TELEMETRY.registry.get("repro_query_seconds")
            assert all(child.count == 0 for _, child in fam.series())
        finally:
            TELEMETRY.enable()


class TestSlowQueryExemplars:
    def test_exemplars_replay_to_identical_answers(self):
        server = _populated()
        qt = server.tnow + 1
        originals = {}
        for method, varrho in (("fr", 1.2), ("pa", 1.5), ("dh-optimistic", 0.9)):
            result = server.query(method, qt=qt, varrho=varrho)
            originals[result.stats.method] = result
        entries = TELEMETRY.slow_queries.entries()
        assert len(entries) == 3
        for entry in entries:
            again = server.query(**entry.replay_kwargs())
            reference = originals[entry.method]
            assert again.regions.rects == reference.regions.rects
            assert again.area() == reference.area()
            assert entry.trace["name"] == "query"

    def test_queries_feed_the_metrics_registry(self):
        server = _populated()
        server.query("fr", qt=server.tnow + 1, varrho=1.2)
        assert TELEMETRY.registry.get("repro_query_total").labels(
            "fr", "ok"
        ).value == 1.0
        assert TELEMETRY.registry.get("repro_query_seconds").labels(
            "fr"
        ).count == 1


# ----------------------------------------------------------------------
# satellite: recover() resets per-query counters, bumps the generation
# ----------------------------------------------------------------------
class TestRecoveryGeneration:
    def test_recover_resets_query_counters_and_bumps_generation(self, tmp_path):
        state_dir = str(tmp_path / "state")
        server = PDRServer(
            small_system_config(),
            expected_objects=200,
            reliability=ReliabilityConfig(state_dir=state_dir, fsync=False),
        )
        populate_clustered(server, 60)
        server.checkpoint()
        server.query("fr", qt=server.tnow + 1, varrho=1.2)
        assert server.query_counters["served"] == 1
        assert server.recovery_generation == 0
        server.close()

        recovered = PDRServer.recover(state_dir)
        assert recovered.query_counters["served"] == 0
        assert sum(recovered.stage_seconds.values()) == 0.0
        assert recovered.recovery_generation == 1
        report = recovered.reliability_report()
        assert report["recovery_generation"] == 1
        assert report["queries_served"] == 0
        recovered.close()

        # the generation is durable: a second recovery keeps counting
        again = PDRServer.recover(state_dir)
        assert again.recovery_generation == 2
        again.close()
