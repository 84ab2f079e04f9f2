"""Reliability layer: ingestion quarantine, fault injection, deadlines.

Covers the serving-path half of the fault-tolerance work: boundary
validation with the dead-letter queue, the deterministic fault injector,
cooperative query deadlines with the ``fr -> pa -> dh-optimistic``
degradation ladder, retry-with-backoff for transient faults, and the
all-listeners-notified guarantee of the update fan-out.  The durability
half (WAL, checkpoints, crash recovery) lives in ``test_recovery.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import populate_clustered, small_system_config
from repro import PDRServer
from repro.core.errors import (
    DeadlineExceededError,
    InvalidParameterError,
    ListenerFanoutError,
    TransientFaultError,
    TransientIOError,
)
from repro.methods.table import METHODS
from repro.motion.table import ObjectTable
from repro.motion.updates import UpdateListener
from repro.reliability.admission import AdmissionConfig, AdmissionController
from repro.reliability import deadline, validation
from repro.reliability.deadline import (
    Deadline,
    ladder_for,
    run_with_retries,
)
from repro.reliability.faults import (
    FaultInjector,
    InjectedCrashError,
    VirtualClock,
)
from repro.reliability.validation import ReliabilityConfig


def make_server(faults=None) -> PDRServer:
    rc = ReliabilityConfig(faults=faults)
    server = PDRServer(small_system_config(), expected_objects=200, reliability=rc)
    return server


# ----------------------------------------------------------------------
# ingestion hardening
# ----------------------------------------------------------------------
class TestReportValidation:
    def test_rejects_every_documented_reason(self):
        server = make_server()
        server.advance_to(3)
        populate_clustered(server, 20)
        before = server.object_count()

        assert server.report(90, float("nan"), 5.0, 0.0, 0.0) is None
        assert server.report(91, 5.0, float("inf"), 0.0, 0.0) is None
        assert server.report(92, 250.0, 5.0, 0.0, 0.0) is None
        assert server.report(-7, 5.0, 5.0, 0.0, 0.0) is None
        assert server.report(True, 5.0, 5.0, 0.0, 0.0) is None
        assert server.report("car", 5.0, 5.0, 0.0, 0.0) is None
        assert server.report(94, 5.0, 5.0, 0.0, 0.0, t=1) is None
        assert server.report(95, 5.0, 5.0, 0.0, 0.0, t=9) is None
        assert server.retire(999) is False

        counts = server.dead_letters.counts
        assert counts["nonfinite"] == 2
        assert counts["out_of_bounds"] == 1
        assert counts["bad_oid"] == 3
        assert counts["stale"] == 1
        assert counts["future"] == 1
        assert counts["unknown_oid"] == 1
        assert server.dead_letters.total == 9
        # none of the rejects leaked into any maintained structure
        assert server.object_count() == before
        assert len(server.tree) == before
        assert server.audit() == []

    def test_accepted_report_with_explicit_current_timestamp(self):
        server = make_server()
        server.advance_to(5)
        assert server.report(1, 10.0, 10.0, 0.5, 0.5, t=5) is not None
        assert server.dead_letters.total == 0

    def test_reject_records_carry_verdict_details(self):
        server = make_server()
        server.report(1, -3.0, 5.0, 0.0, 0.0)
        reject = server.dead_letters.latest
        assert reject.reason == "out_of_bounds"
        assert "(-3.0, 5.0)" in reject.detail
        assert reject.oid == 1 and reject.tnow == 0

    def test_re_report_within_a_tick_is_accepted(self):
        # a re-report within the tick is the documented delete+insert
        # protocol and must go through, in one wave or in two, at any speed
        server = make_server()
        assert server.report(1, 10.0, 10.0, 0.0, 0.0) is not None
        assert server.report(1, 20.0, 20.0, 30.0, 0.0) is not None
        assert server.report_batch([(1, 30.0, 30.0, 0.0, 0.0),
                                    (1, 40.0, 40.0, 0.0, 0.0)])[1] is not None
        assert server.dead_letters.total == 0
        assert server.object_count() == 1
        assert server.table.motion_of(1).x == 40.0


class TestDeadLetterQueue:
    def test_bounded_entries_unbounded_counters(self, monkeypatch):
        monkeypatch.setattr(validation, "DEAD_LETTER_CAPACITY", 4)
        server = make_server()
        for i in range(9):
            server.report(i, -1.0, -1.0, 0.0, 0.0)
        assert len(server.dead_letters) == 4  # queue wrapped
        assert server.dead_letters.total == 9  # counters did not
        assert server.dead_letters.counts["out_of_bounds"] == 9
        # the queue keeps the most recent rejects
        assert [r.oid for r in server.dead_letters] == [5, 6, 7, 8]

    def test_capacity_must_be_positive(self):
        # a constant now: the bound the constructor checked holds on it
        assert validation.DEAD_LETTER_CAPACITY >= 1
        assert validation.DeadLetterQueue()._entries.maxlen == validation.DEAD_LETTER_CAPACITY


# ----------------------------------------------------------------------
# fault injector
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_unarmed_hit_only_counts(self):
        faults = FaultInjector()
        for _ in range(3):
            faults.hit("some.site")
        assert faults.hits("some.site") == 3

    def test_error_fires_after_skip_and_respects_times(self):
        faults = FaultInjector()
        faults.inject_error("s", after=2, times=2)
        faults.hit("s")
        faults.hit("s")
        with pytest.raises(TransientIOError):
            faults.hit("s")
        with pytest.raises(TransientIOError):
            faults.hit("s")
        faults.hit("s")  # rule exhausted

    def test_delay_advances_the_virtual_clock(self):
        faults = FaultInjector()
        faults.inject_delay("io", seconds=0.25)
        t0 = faults.clock.now()
        faults.hit("io")
        assert faults.clock.now() == pytest.approx(t0 + 0.25)

    def test_delay_fires_before_error_at_same_site(self):
        faults = FaultInjector()
        faults.inject_delay("io", seconds=0.1)
        faults.inject_error("io")
        t0 = faults.clock.now()
        with pytest.raises(TransientIOError):
            faults.hit("io")
        assert faults.clock.now() == pytest.approx(t0 + 0.1)

    def test_crash_is_not_an_exception(self):
        faults = FaultInjector()
        faults.inject_crash("wal")
        with pytest.raises(InjectedCrashError):
            try:
                faults.hit("wal")
            except Exception:  # noqa: BLE001 - the point of the test
                pytest.fail("a crash must not be catchable as Exception")

    def test_clear_disarms_but_keeps_counters(self):
        faults = FaultInjector()
        faults.inject_error("s", times=None)
        with pytest.raises(TransientIOError):
            faults.hit("s")
        faults.clear("s")
        faults.hit("s")
        assert faults.hits("s") == 2


# ----------------------------------------------------------------------
# deadlines, retries, the degradation ladder
# ----------------------------------------------------------------------
class TestDeadline:
    def test_expiry_on_virtual_clock(self):
        clock = VirtualClock()
        d = Deadline(1.0, clock)
        d.check()
        clock.sleep(0.6)
        assert d.remaining() == pytest.approx(0.4)
        clock.sleep(0.5)
        assert d.expired
        with pytest.raises(DeadlineExceededError, match="at fr.refine"):
            d.check("fr.refine")

    def test_sliced_never_extends_the_parent(self):
        clock = VirtualClock()
        d = Deadline(1.0, clock)
        assert d.sliced(0.5).remaining() == pytest.approx(0.5)
        assert d.sliced(5.0).remaining() == pytest.approx(1.0)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(InvalidParameterError):
            Deadline(0.0, VirtualClock())


class TestRetries:
    def test_transient_faults_retried_with_exponential_backoff(self, monkeypatch):
        monkeypatch.setattr(deadline, "RETRIES", 3)
        monkeypatch.setattr(deadline, "BACKOFF_SECONDS", 0.1)
        clock = VirtualClock()
        calls = []

        def flaky():
            calls.append(clock.now())
            if len(calls) < 3:
                raise TransientIOError("flaky")
            return "ok"

        result, attempts = run_with_retries(flaky, clock=clock)
        assert result == "ok" and attempts == 2
        assert calls == [pytest.approx(0.0), pytest.approx(0.1), pytest.approx(0.3)]

    def test_exhausted_retries_reraise(self):
        calls = []

        def always():
            calls.append(1)
            raise TransientIOError("down")

        with pytest.raises(TransientFaultError):
            run_with_retries(always, clock=VirtualClock())
        assert len(calls) == deadline.RETRIES + 1

    def test_non_transient_errors_not_retried(self, monkeypatch):
        monkeypatch.setattr(deadline, "RETRIES", 5)
        calls = []

        def broken():
            calls.append(1)
            raise InvalidParameterError("bad")

        with pytest.raises(InvalidParameterError):
            run_with_retries(broken, clock=VirtualClock())
        assert len(calls) == 1


class TestLadder:
    def test_ladder_shapes(self, small_config):
        q = lambda l: type("Q", (), {"l": l})()  # noqa: E731 - only .l is read
        assert ladder_for("fr", q(10.0), 10.0) == ["fr", "pa", "dh-optimistic"]
        assert ladder_for("pa", q(10.0), 10.0) == ["pa", "dh-optimistic"]
        assert ladder_for("dh-optimistic", q(10.0), 10.0) == ["dh-optimistic"]
        assert ladder_for("dh-pessimistic", q(10.0), 10.0) == ["dh-pessimistic"]
        assert ladder_for("bruteforce", q(10.0), 10.0) == ["bruteforce", "dh-optimistic"]
        # PA cannot answer a different l: its rung is dropped
        assert ladder_for("fr", q(7.0), 10.0) == ["fr", "dh-optimistic"]


class TestMethodTable:
    """One table: the evaluator, the ladder, the prices and the CLI read it."""

    def test_every_row_evaluates_and_names_itself(self):
        server = make_server()
        server.advance_to(1)
        populate_clustered(server, 40)
        for name in METHODS:
            result = server.query(name, qt=2, rho=0.01)
            assert result.stats.method == name and not result.degraded
            assert server.evaluate(name, server.make_query(qt=2, rho=0.01)).stats.method == name
        with pytest.raises(InvalidParameterError, match="unknown method 'fr-optimised'"):
            server.query("fr-optimised", qt=2, rho=0.01)
        assert server.reliability_report()["queries_served"] == len(METHODS)

    def test_cli_choices_are_the_table_keys(self):
        from repro.cli import build_parser

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(
                ["query", "--snapshot", "w.npz", "--varrho", "2", "--method", "fr-optimised"]
            )
        (query,) = [
            sub.choices["query"] for sub in parser._actions if "query" in (sub.choices or ())
        ]
        (method,) = [a for a in query._actions if a.dest == "method"]
        assert list(method.choices) == list(METHODS)

    def test_every_ladder_ends_in_a_bound_and_never_costs_more(self):
        admission = AdmissionController(AdmissionConfig(), VirtualClock())
        prices = {name: admission.cost_of(name) for name in METHODS}
        assert prices == {name: row.cost for name, row in METHODS.items()}
        for name in METHODS:
            rungs = ladder_for(name)
            assert rungs[0] == name
            assert METHODS[rungs[-1]].cheaper is None
            assert rungs[-1] in ("dh-optimistic", "dh-pessimistic")
            costs = [prices[r] for r in rungs]
            assert costs == sorted(costs, reverse=True), (name, costs)


class TestQueryDegradation:
    @pytest.fixture
    def loaded(self):
        faults = FaultInjector()
        server = make_server(faults=faults)
        server.advance_to(1)
        populate_clustered(server, 120)
        return server, faults

    def test_no_deadline_is_undegraded(self, loaded):
        server, _ = loaded
        result = server.query("fr", qt=2, rho=0.004)
        assert result.stats.method == "fr"
        assert result.requested_method == "fr"
        assert result.degraded is False

    def test_fast_path_meets_deadline_without_degrading(self, loaded):
        server, _ = loaded
        result = server.query("fr", qt=2, rho=0.004, deadline=100.0)
        assert result.stats.method == "fr" and not result.degraded

    def test_slow_fr_degrades_to_pa_within_budget(self, loaded):
        # the acceptance scenario: FR is delayed past its slice, the
        # ladder answers with PA, inside the budget, flagged degraded
        server, faults = loaded
        faults.inject_delay("fr.refine", seconds=0.2)
        result = server.query("fr", qt=2, rho=0.004, deadline=0.5)
        assert result.stats.method == "pa"
        assert result.requested_method == "fr"
        assert result.degraded is True
        assert result.stats.extra["deadline_spent"] <= 0.5
        assert result.stats.extra["ladder_fallbacks"] == 1.0

    def test_slow_fr_and_pa_degrade_to_histogram_bound(self, loaded):
        server, faults = loaded
        faults.inject_delay("fr.refine", seconds=0.2)
        faults.inject_delay("pa.query", seconds=1.0)
        result = server.query("fr", qt=2, rho=0.004, deadline=0.5)
        assert result.stats.method == "dh-optimistic"
        assert result.degraded is True
        # the optimistic bound is a superset of the exact answer
        exact = server.query("fr", qt=2, rho=0.004)
        from repro.metrics.raster import RasterMeasure

        raster = RasterMeasure(server.config.domain, resolution=400)
        m_exact = raster.rasterize(exact.regions)
        m_bound = raster.rasterize(result.regions)
        assert not (m_exact & ~m_bound).any()

    def test_degraded_pa_answer_matches_direct_pa(self, loaded):
        server, faults = loaded
        faults.inject_delay("fr.refine", seconds=0.2)
        degraded = server.query("fr", qt=2, rho=0.004, deadline=0.5)
        direct = server.query("pa", qt=2, rho=0.004)
        assert {r.as_tuple() for r in degraded.regions} == {
            r.as_tuple() for r in direct.regions
        }

    def test_transient_io_faults_retried_transparently(self, loaded):
        server, faults = loaded
        faults.inject_error("buffer.io", times=2)
        result = server.query("fr", qt=2, rho=0.004)
        assert result.stats.method == "fr" and not result.degraded
        assert result.stats.extra == result.stats.extra  # no crash markers

    def test_transient_faults_inside_ladder_fall_through(self, loaded, monkeypatch):
        server, faults = loaded
        monkeypatch.setattr(deadline, "RETRIES", 1)
        faults.inject_error("fr.refine", times=None)  # FR permanently down
        result = server.query("fr", qt=2, rho=0.004, deadline=10.0)
        assert result.stats.method == "pa"
        assert result.degraded is True

    def test_retries_exhausted_without_deadline_raises(self, loaded):
        server, faults = loaded
        faults.inject_error("buffer.io", times=None)
        with pytest.raises(TransientFaultError):
            server.query("fr", qt=2, rho=0.004)

    def test_deadline_spent_uses_server_clock(self, loaded):
        server, faults = loaded
        faults.inject_delay("pa.query", seconds=0.3)
        result = server.query("pa", qt=2, rho=0.004, deadline=2.0)
        assert result.stats.extra["deadline_spent"] >= 0.3


# ----------------------------------------------------------------------
# update fan-out hardening
# ----------------------------------------------------------------------
class _ExplodingListener(UpdateListener):
    def __init__(self):
        self.waves = 0

    def on_report_batch(self, wave):
        self.waves += 1
        raise RuntimeError("listener bug")


class _CountingListener(UpdateListener):
    def __init__(self):
        self.inserts = 0
        self.deletes = 0

    def on_report_batch(self, wave):
        self.inserts += len(wave.inserted)
        self.deletes += len(wave.deleted)


class TestListenerFanout:
    def test_dispatch_notifies_all_listeners_despite_failures(self):
        table = ObjectTable()
        bad, good, worse = _ExplodingListener(), _CountingListener(), _ExplodingListener()
        for listener in (bad, good, worse):
            table.add_listener(listener)
        with pytest.raises(ListenerFanoutError) as info:
            # the repeated oid cuts the batch into two waves
            table.report_batch([(1, 1.0, 1.0, 0.0, 0.0), (1, 2.0, 2.0, 0.0, 0.0)])
        assert (good.inserts, good.deletes) == (2, 1)  # still notified, both waves
        assert bad.waves == worse.waves == 2  # a failed wave does not stop the next
        # ONE error carries every failure of every wave ...
        assert [listener for listener, _ in info.value.failures] == [bad, worse, bad, worse]
        assert "4 listener failure(s)" in str(info.value)
        assert all("listener bug" in str(exc) for _, exc in info.value.failures)
        # ... and the table had committed the rows before anyone was told
        assert table.motion_of(1).x == 2.0 and len(table) == 1
        with pytest.raises(ListenerFanoutError) as info:
            table.retire(1)
        assert good.deletes == 2 and len(info.value.failures) == 2 and 1 not in table

    def test_server_structures_stay_consistent_when_a_listener_fails(self):
        server = make_server()
        bad = _ExplodingListener()
        server.table.add_listener(bad)
        with pytest.raises(ListenerFanoutError):
            server.report(1, 10.0, 10.0, 0.5, 0.0)
        # the report reached the table, tree, histogram and PA anyway
        assert server.object_count() == 1
        assert len(server.tree) == 1
        assert server.audit() == []
        # re-reporting (delete+insert) also survives the bad listener
        with pytest.raises(ListenerFanoutError):
            server.report_batch([(1, 20.0, 20.0, 0.0, 0.5), (2, 30.0, 30.0, 0.0, 0.0)])
        assert server.object_count() == 2
        assert server.audit() == []
        assert bad.waves == 2

    def test_crash_during_fanout_propagates_immediately(self):
        faults = FaultInjector()

        class CrashingListener(UpdateListener):
            def on_report_batch(self, wave):
                faults.inject_crash("x")
                faults.hit("x")

        table = ObjectTable()
        notified = _CountingListener()
        table.add_listener(CrashingListener())
        table.add_listener(notified)
        with pytest.raises(InjectedCrashError):
            table.report(1, 1.0, 1.0, 0.0, 0.0)
        assert notified.inserts == 0  # a dead process notifies nobody


class TestReliabilityReport:
    def test_operator_counters(self):
        server = make_server()
        server.report(1, -5.0, 0.0, 0.0, 0.0)
        report = server.reliability_report()
        assert report["dead_letter_total"] == 1
        assert report["dead_letter_counts"] == {"out_of_bounds": 1}
        assert report["wal_lsn"] is None  # durability off
