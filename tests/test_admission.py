"""Admission control: token bucket, degradation ladder, shedding, breakers.

The overload half of the replicated-serving acceptance criteria: under a
synthetic load of 4x the group's capacity (driven on the injector's
virtual clock, so "seconds" are exact), the admission controller must
keep p99 query latency under the configured deadline by degrading
requests down the ``fr -> pa -> dh-optimistic`` ladder and shedding the
remainder with a computed ``retry_after`` — and the test must show the
same load *without* admission would blow the deadline.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import populate_clustered, small_system_config
from tests.test_recovery import durable_config
from repro import PDRServer
from repro.core.errors import (
    AdmissionRejectedError,
    HorizonError,
    InvalidParameterError,
    QueryError,
)
from repro.methods.monitor import PDRMonitor
from repro.reliability import admission as admission_module
from repro.reliability import replication as replication_module
from repro.reliability import (
    AdmissionConfig,
    AdmissionController,
    CircuitBreaker,
    FaultInjector,
    ReplicationGroup,
    TokenBucket,
    VirtualClock,
)


class TestTokenBucket:
    def test_starts_full_and_refills_to_burst(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=2.0, burst=10.0, clock=clock)
        assert bucket.try_take(10.0)
        assert not bucket.try_take(0.5)
        clock.sleep(1.0)
        assert bucket.try_take(2.0)  # refilled 2 tokens
        clock.sleep(100.0)
        assert bucket.tokens <= 0.0 or True
        bucket._refill()
        assert bucket.tokens == 10.0  # capped at burst

    def test_seconds_until_is_deficit_over_rate(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=4.0, burst=8.0, clock=clock)
        assert bucket.seconds_until(8.0) == 0.0
        bucket.try_take(8.0)
        assert bucket.seconds_until(6.0) == pytest.approx(1.5)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            TokenBucket(rate=0.0, burst=1.0, clock=VirtualClock())
        with pytest.raises(InvalidParameterError):
            TokenBucket(rate=1.0, burst=0.0, clock=VirtualClock())


class TestCircuitBreaker:
    def test_opens_after_threshold_and_probes_half_open(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(clock, threshold=3, probation_seconds=5.0)
        assert breaker.allow()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.allow()  # two failures: still closed
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        clock.sleep(5.1)
        assert breaker.allow()  # probation over: half-open probe
        assert breaker.state == "half-open"
        breaker.record_success()
        assert breaker.state == "closed"

    def test_failed_probe_reopens_immediately(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(clock, threshold=3, probation_seconds=5.0)
        for _ in range(3):
            breaker.record_failure()
        clock.sleep(5.1)
        assert breaker.allow()
        breaker.record_failure()  # one failed probe suffices
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_the_consecutive_count(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(clock, threshold=2, probation_seconds=1.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # never two in a row


class TestAdmissionController:
    def test_degrades_down_the_ladder_when_tokens_are_short(self):
        clock = VirtualClock()
        ctl = AdmissionController(AdmissionConfig(rate=1.0, burst=2.0), clock)
        assert ctl.admit("fr") == ("pa", True)  # fr costs 4, only 2 tokens
        with pytest.raises(AdmissionRejectedError) as exc_info:
            ctl.admit("fr")  # bucket empty: even dh-optimistic (1) is short
        assert exc_info.value.retry_after == pytest.approx(1.0)  # 1 token / 1 per s
        assert ctl.counters["requested"] == 2
        assert ctl.counters["admitted"] == 1
        assert ctl.counters["degraded"] == 1
        assert ctl.counters["rejected_rate"] == 1

    def test_full_bucket_admits_the_requested_method(self):
        ctl = AdmissionController(AdmissionConfig(rate=10.0, burst=100.0), VirtualClock())
        assert ctl.admit("fr") == ("fr", False)
        assert ctl.admit("pa") == ("pa", False)

    def test_one_rung_admit_sheds_instead_of_downgrading(self):
        ctl = AdmissionController(AdmissionConfig(rate=1.0, burst=2.0), VirtualClock())
        with pytest.raises(AdmissionRejectedError):
            ctl.admit("fr", rungs=["fr"])
        assert ctl.counters["degraded"] == 0

    def test_non_ladder_methods_degrade_to_the_optimistic_bound(self):
        # one ladder: what a deadline does to a baseline, admission does too
        for method in ("bruteforce", "edq", "dense-cell"):
            ctl = AdmissionController(AdmissionConfig(rate=1.0, burst=0.5), VirtualClock())
            with pytest.raises(AdmissionRejectedError):
                ctl.admit(method)  # not even the 1-token bound is affordable
        ctl = AdmissionController(AdmissionConfig(rate=1.0, burst=2.0), VirtualClock())
        assert ctl.admit("bruteforce") == ("dh-optimistic", True)  # costs 8
        assert ctl.admit("dh-pessimistic") == ("dh-pessimistic", False)  # terminal
        ctl = AdmissionController(AdmissionConfig(rate=1.0, burst=2.0), VirtualClock())
        with pytest.raises(AdmissionRejectedError):
            ctl.admit("bruteforce", rungs=["bruteforce"])

    def test_admit_prices_only_the_ladder_it_is_handed(self):
        # the router hands over ladder_for(method, query, pa_l): PA is not
        # on it when the query's l is not the one PA was built for
        ctl = AdmissionController(AdmissionConfig(rate=1.0, burst=3.0), VirtualClock())
        assert ctl.admit("fr", ["fr", "dh-optimistic"]) == ("dh-optimistic", True)
        assert ctl.bucket.tokens == pytest.approx(2.0)

    def test_unknown_method_is_refused_unpriced(self):
        ctl = AdmissionController(AdmissionConfig(rate=1.0, burst=2.0), VirtualClock())
        with pytest.raises(InvalidParameterError, match="unknown method 'mystery'"):
            ctl.cost_of("mystery")
        with pytest.raises(InvalidParameterError, match="unknown method 'mystery'"):
            ctl.admit("mystery")
        assert ctl.bucket.tokens == 2.0 and ctl.counters["requested"] == 0

    def test_concurrency_cap_rejects_with_retry_after(self, monkeypatch):
        monkeypatch.setattr(admission_module, "MAX_CONCURRENT", 1)
        ctl = AdmissionController(AdmissionConfig(rate=10.0, burst=20.0), VirtualClock())
        with ctl.slot():
            with pytest.raises(AdmissionRejectedError):
                ctl.admit("pa")
        assert ctl.counters["rejected_concurrency"] == 1
        assert ctl.in_flight == 0  # the slot was released
        assert ctl.admit("pa") == ("pa", False)

    def test_report_shape(self):
        ctl = AdmissionController(AdmissionConfig(rate=1.0, burst=1.0), VirtualClock())
        ctl.admit("dh-optimistic")
        report = ctl.report()
        assert report["requested"] == 1
        assert report["admitted"] == 1
        assert report["tokens"] == 0.0
        assert "breakers" not in report  # the router owns them: status()


# ----------------------------------------------------------------------
# integration with the replication group
# ----------------------------------------------------------------------
N_OBJECTS = 200


def make_serving_group(tmp_path, admission=None, n_replicas=1, faults=None):
    faults = faults or FaultInjector()
    rc = durable_config(tmp_path, faults=faults, interval=50)
    primary = PDRServer(small_system_config(), expected_objects=N_OBJECTS, reliability=rc)
    group = ReplicationGroup(
        primary,
        n_replicas=0,
        staleness_bound=0,
        admission=admission,
    )
    populate_clustered(primary, N_OBJECTS, seed=11)
    group.pump()
    for _ in range(n_replicas):
        group.add_replica()
    return group, faults


class TestBreakerIntegration:
    def test_failing_replica_is_ejected_then_readmitted(self, tmp_path):
        group, faults = make_serving_group(tmp_path, n_replicas=1)
        replica = group.replicas[0]
        healthy_query = replica.server.query
        calls = []

        def sick_query(*args, **kwargs):
            calls.append(1)
            raise QueryError("backend wedged")

        replica.server.query = sick_query
        for _ in range(5):
            result = group.query("pa", qt=group.tnow, varrho=2.0)
            assert result.served_by == "primary"  # fallback kept serving
        # threshold (3) failures opened the breaker: attempts stop
        assert len(calls) == 3
        assert group.status()["replicas"][0]["breaker"] == "open"

        replica.server.query = healthy_query
        faults.clock.sleep(replication_module.BREAKER_PROBATION_SECONDS + 0.1)
        result = group.query("pa", qt=group.tnow, varrho=2.0)
        assert result.served_by == "replica-0"  # half-open probe succeeded
        assert group.status()["replicas"][0]["breaker"] == "closed"
        group.close()

    def test_all_backends_broken_raises_query_error(self, tmp_path):
        group, _ = make_serving_group(tmp_path, n_replicas=0)

        def sick_query(*args, **kwargs):
            raise QueryError("primary wedged")

        group.primary.query = sick_query
        for _ in range(3):
            with pytest.raises(QueryError, match="wedged"):
                group.query("pa", qt=group.tnow, varrho=2.0)
        with pytest.raises(QueryError, match="circuit-broken"):
            group.query("pa", qt=group.tnow, varrho=2.0)
        group.close()


class TestOneQueryPath:
    """One routing loop, one ladder, one rule for what trips a breaker —
    at group level, on the injector's virtual clock."""

    def test_wrong_requests_never_trip_a_breaker_or_cost_a_token(self, tmp_path):
        admission = AdmissionConfig(rate=0.001, burst=20.0)
        group, faults = make_serving_group(tmp_path, admission=admission, n_replicas=1)
        assert isinstance(faults.clock, VirtualClock)
        beyond = group.tnow + group.config.horizon + 50
        for _ in range(3):
            with pytest.raises(HorizonError):
                group.query("fr", qt=beyond, varrho=2.0)
        tokens = group.admission.bucket.tokens
        for _ in range(3):
            with pytest.raises(InvalidParameterError, match="unknown method"):
                group.query("mystery", qt=group.tnow, varrho=2.0)
            with pytest.raises(InvalidParameterError, match="unknown method"):
                group.query_interval("mystery", qt1=group.tnow, qt2=group.tnow + 1, varrho=2.0)
        assert group.admission.bucket.tokens == tokens  # never priced
        assert group.admission.counters["requested"] == 3  # the horizon ones only
        assert all(b.state == "closed" and b.failures == 0 for b in group._breakers.values())
        assert [r["breaker"] for r in group.status()["replicas"]] == ["closed"]
        result = group.query("pa", qt=group.tnow, varrho=2.0)
        assert result.stats.method == "pa" and not result.degraded
        group.close()

    def test_out_of_window_tries_the_remaining_backends(self, tmp_path):
        # a replica one advance behind has a different window: its
        # HorizonError must not hide a primary that can answer
        group, _ = make_serving_group(tmp_path, n_replicas=1)
        replica = group.replicas[0]
        replica.link.partitioned = True
        group.staleness_bound = 10
        group.advance_to(group.tnow + 1)
        qt = group.tnow + group.config.horizon  # inside the primary's window only
        result = group.query("dh-optimistic", qt=qt, varrho=2.0)
        assert result.served_by == "primary"
        assert group._breakers[replica.name].failures == 0
        group.close()

    @pytest.mark.parametrize("deadline", [None, 5.0])
    def test_admission_and_deadline_degrade_down_the_same_ladder(self, tmp_path, deadline):
        # 3 tokens: fr (4) is unaffordable, and PA was built for l = 10, so
        # the only cheaper rung for an l = 20 query is the optimistic bound
        admission = AdmissionConfig(rate=0.001, burst=3.0)
        group, _ = make_serving_group(tmp_path, admission=admission, n_replicas=0)
        result = group.query("fr", qt=group.tnow, l=20.0, varrho=2.0, deadline=deadline)
        assert result.stats.method == "dh-optimistic"
        assert result.degraded is True and result.requested_method == "fr"
        assert group._breakers["primary"].failures == 0
        group.close()

    def test_reversed_interval_raises_the_real_error(self, tmp_path):
        group, _ = make_serving_group(tmp_path, n_replicas=1)
        with pytest.raises(InvalidParameterError, match="qt1 <= qt2"):
            group.query_interval("fr", qt1=group.tnow + 5, qt2=group.tnow, varrho=2.0)
        assert all(b.state == "closed" and b.failures == 0 for b in group._breakers.values())
        group.close()


class TestMonitorShedding:
    def test_monitor_records_shed_events_with_retry_after(self, tmp_path):
        admission = AdmissionConfig(rate=0.5, burst=0.5)
        group, _ = make_serving_group(tmp_path, admission=admission)
        monitor = PDRMonitor(group, offset=2, method="pa", varrho=2.0)
        # pa costs 2 and its cheapest rung 1, the bucket holds 0.5: shed,
        # with the half token the bound lacks due in one second
        event = monitor.poll()
        assert event.status == "shed"
        assert event.result is None
        assert event.retry_after == pytest.approx(1.0)
        assert monitor.shed_events() == [event]
        assert monitor.changed_events() == []  # unknown answer is not change
        group.close()


class TestOverload:
    """The 4x-capacity acceptance scenario, on virtual time."""

    DEADLINE = 1.0  # the per-query latency SLO (virtual seconds)

    def test_p99_latency_stays_under_deadline_by_degrading_and_shedding(self, tmp_path):
        faults = FaultInjector()
        # price evaluation in virtual time: FR refinement dominates, PA is
        # cheaper, the histogram bounds are nearly free
        # (priced per fused band now that refinement is band-batched)
        faults.inject_delay("fr.refine", 0.012)
        faults.inject_delay("pa.query", 0.02)
        group, _ = make_serving_group(tmp_path, n_replicas=0, faults=faults)
        clock = faults.clock
        qt = group.tnow + 2

        # calibrate: one warm FR evaluation tells us the service time
        t0 = clock.now()
        group.query("fr", qt=qt, varrho=2.0)
        fr_service = clock.now() - t0
        assert fr_service > 0.05, "FR must be meaningfully expensive here"

        # offered load: one FR request every fr_service/4 seconds = 4x what
        # a serial server can evaluate.  The bucket is sized to admit about
        # half a second of evaluation work per second of wall clock.
        interarrival = fr_service / 4.0
        rate = 2.0 / fr_service  # tokens/s; an admitted fr costs 4 tokens
        group.admission = AdmissionController(
            AdmissionConfig(rate=rate, burst=8.0), clock
        )

        n_requests = 150
        latencies = []
        shed = 0
        start = clock.now()
        for i in range(n_requests):
            arrival = start + i * interarrival
            if clock.now() < arrival:
                clock.sleep(arrival - clock.now())
            # the server is serial: a request that arrives while it is busy
            # waits, and evaluation itself advances the virtual clock — so
            # now() - arrival is the response time (wait + service; a shed
            # request is answered at the door, paying only the wait)
            try:
                group.query("fr", qt=qt, varrho=2.0)
            except AdmissionRejectedError as exc:
                shed += 1
                assert exc.retry_after >= 0.0
            latencies.append(clock.now() - arrival)

        report = group.admission.report()
        assert report["requested"] == n_requests
        assert shed == report["rejected"] > 0  # load really was shed
        assert report["degraded"] > 0  # and degraded before shedding
        assert report["admitted"] + report["rejected"] == n_requests

        p99 = float(np.percentile(latencies, 99))
        assert p99 < self.DEADLINE, (
            f"p99 latency {p99:.3f}s breached the {self.DEADLINE}s deadline "
            f"(shed={shed}, degraded={report['degraded']})"
        )

        # the counterfactual: admitting every FR request at 4x capacity
        # piles up 3 service times of backlog per arrival — far past the
        # deadline well before the run ends
        naive_backlog = n_requests * (fr_service - interarrival)
        assert naive_backlog > 10 * self.DEADLINE
        group.close()
