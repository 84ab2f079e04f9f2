"""Front-door admission control: rate limiting, shedding, circuit breaking.

A serving tier protecting itself from overload has to make three
decisions per query *before* any evaluation work happens:

* **Can the group afford it right now?**  A token bucket refilled at
  ``rate`` tokens per second (burst-capped) is charged the query's *cost
  class* — the ``cost`` column of the method table
  (:mod:`repro.methods.table`): FR costs more than PA, PA more than the
  histogram bounds.  When the requested class is unaffordable the
  controller walks the rungs the router hands it — the same
  :func:`~repro.reliability.deadline.ladder_for` rungs a deadline degrades
  down — trading answer precision for admission.  When even the
  cheapest rung is unaffordable, the query is shed with a
  :class:`~repro.core.errors.AdmissionRejectedError` carrying
  ``retry_after`` — an overloaded group answers *something* (cheap
  approximations and polite rejections) instead of building an unbounded
  queue and missing every deadline.
* **Is there a seat?**  A concurrency cap bounds in-flight evaluations
  regardless of token balance (tokens bound throughput, seats bound
  memory/latency amplification).
* **Is the chosen backend healthy?**  A per-backend
  :class:`CircuitBreaker` ejects a repeatedly failing replica from the
  rotation and re-admits it after a probation period via a half-open
  probe, so one sick backend cannot eat every query's retry budget.  The
  breakers themselves live with the router that owns the backends
  (:class:`~repro.reliability.replication.ReplicationGroup`).

Everything is driven by an injectable :class:`~repro.reliability.faults.Clock`,
so overload scenarios are exact in tests (virtual time) and real in
production (monotonic time).
"""

from __future__ import annotations

import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..core.errors import AdmissionRejectedError, InvalidParameterError
from ..methods.table import method_named
from ..telemetry import instruments as tm
from ..telemetry.journal import JOURNAL
from .deadline import ladder_for
from .faults import Clock

__all__ = [
    "TokenBucket",
    "CircuitBreaker",
    "AdmissionConfig",
    "AdmissionController",
]


class TokenBucket:
    """A continuously refilled token bucket on an injectable clock."""

    def __init__(self, rate: float, burst: float, clock: Clock) -> None:
        if rate <= 0:
            raise InvalidParameterError(f"refill rate must be positive, got {rate}")
        if burst <= 0:
            raise InvalidParameterError(f"burst must be positive, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.clock = clock
        self.tokens = float(burst)
        self._last = clock.now()

    def _refill(self) -> None:
        now = self.clock.now()
        if now > self._last:
            self.tokens = min(self.burst, self.tokens + (now - self._last) * self.rate)
        self._last = now

    def try_take(self, cost: float) -> bool:
        """Charge ``cost`` tokens if the balance allows; never blocks."""
        self._refill()
        if self.tokens >= cost:
            self.tokens -= cost
            return True
        return False

    def seconds_until(self, cost: float) -> float:
        """Time until ``cost`` tokens will be available (0 if already)."""
        self._refill()
        deficit = cost - self.tokens
        return max(0.0, deficit / self.rate)


class CircuitBreaker:
    """Closed -> open -> half-open failure isolation for one backend.

    ``threshold`` consecutive failures open the breaker for
    ``probation_seconds``; the first :meth:`allow` after probation is a
    half-open probe whose outcome closes or re-opens it.
    """

    def __init__(
        self,
        clock: Clock,
        threshold: int = 3,
        probation_seconds: float = 5.0,
        name: Optional[str] = None,
    ) -> None:
        if threshold < 1:
            raise InvalidParameterError(f"breaker threshold must be >= 1, got {threshold}")
        if probation_seconds <= 0:
            raise InvalidParameterError(
                f"probation must be positive, got {probation_seconds}"
            )
        self.clock = clock
        self.threshold = threshold
        self.probation_seconds = float(probation_seconds)
        self.name = name
        self.failures = 0
        self.state = "closed"
        self._open_until = 0.0

    def _transition(self, state: str) -> None:
        """Change state, journaling only *actual* transitions."""
        if state == self.state:
            return
        old, self.state = self.state, state
        JOURNAL.emit(
            "breaker." + state.replace("-", "_"),
            backend=self.name,
            previous=old,
            failures=self.failures,
        )

    def allow(self) -> bool:
        """May a request be routed to this backend right now?"""
        if self.state == "open" and self.clock.now() >= self._open_until:
            self._transition("half-open")
        return self.state != "open"

    def record_success(self) -> None:
        self.failures = 0
        self._transition("closed")

    def record_failure(self) -> None:
        self.failures += 1
        # A failed half-open probe re-opens immediately; a closed breaker
        # opens only once the consecutive-failure threshold is reached.
        if self.state == "half-open" or self.failures >= self.threshold:
            self._open_until = self.clock.now() + self.probation_seconds
            self._transition("open")


# In-flight evaluations the controller seats at once, whatever the
# token balance (tokens bound throughput, seats bound latency).
MAX_CONCURRENT = 64


@dataclass
class AdmissionConfig:
    """The token bucket of the front-door admission controller.

    ``rate``/``burst`` are tokens per second / bucket capacity.  A method
    is charged its ``cost`` in the method table, and the controller may
    admit any cheaper rung it is handed before shedding.
    """

    rate: float = 100.0
    burst: float = 200.0


class AdmissionController:
    """Decides, per query, to admit / degrade / shed before evaluation."""

    def __init__(self, config: AdmissionConfig, clock: Clock) -> None:
        self.config = config
        self.clock = clock
        self.bucket = TokenBucket(config.rate, config.burst, clock)
        self.in_flight = 0
        self.counters: Counter = Counter()
        # Read-only queries are admitted from a thread pool in the serving
        # tier; the bucket's refill-check-charge sequence and the seat
        # counter must not interleave or tokens get double-spent.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def cost_of(self, method: str) -> float:
        return method_named(method).cost

    def admit(
        self, method: str, rungs: Optional[Sequence[str]] = None
    ) -> Tuple[str, bool]:
        """Admit ``method`` or a cheaper rung; raise when shedding.

        ``rungs`` is the request's ladder (``ladder_for(method, query,
        pa_l)``, which the router computes so a rung the query cannot run on
        is never admitted); left out, it is the method's full ladder, and
        ``[method]`` admits the method itself or sheds.
        Returns ``(admitted_method, degraded)``.  Raises
        :class:`AdmissionRejectedError` with a ``retry_after`` computed
        from the bucket's refill rate when even the cheapest acceptable
        rung is unaffordable, or when the concurrency cap is reached — and
        ``InvalidParameterError`` for an unknown method, which is neither
        counted nor charged.
        """
        if rungs is None:
            rungs = ladder_for(method)
        with self._lock:
            return self._admit_locked(method, rungs)

    def _admit_locked(self, method: str, rungs: Sequence[str]) -> Tuple[str, bool]:
        self.counters["requested"] += 1
        if self.in_flight >= MAX_CONCURRENT:
            self.counters["rejected"] += 1
            self.counters["rejected_concurrency"] += 1
            tm.ADMISSION_SHEDS.labels(method).inc()
            tm.slo_record(outcome="shed")
            JOURNAL.emit(
                "shed",
                reason="concurrency",
                method=method,
                in_flight=self.in_flight,
            )
            raise AdmissionRejectedError(
                f"concurrency cap reached ({self.in_flight} in flight, "
                f"cap {MAX_CONCURRENT})",
                retry_after=self.bucket.seconds_until(self.cost_of(method)),
            )
        for rung in rungs:
            if self.bucket.try_take(self.cost_of(rung)):
                self.counters["admitted"] += 1
                tm.ADMISSION_ADMITTED.inc()
                if rung != method:
                    self.counters["degraded"] += 1
                    tm.ADMISSION_DEGRADED.inc()
                return rung, rung != method
        self.counters["rejected"] += 1
        self.counters["rejected_rate"] += 1
        tm.ADMISSION_SHEDS.labels(method).inc()
        tm.slo_record(outcome="shed")
        JOURNAL.emit("shed", reason="rate", method=method)
        cheapest = rungs[-1]
        raise AdmissionRejectedError(
            f"query load exceeds capacity; {method!r} (and every cheaper "
            f"rung) shed",
            retry_after=self.bucket.seconds_until(self.cost_of(cheapest)),
        )

    @contextmanager
    def slot(self):
        """Holds one concurrency seat for the duration of an evaluation."""
        with self._lock:
            self.in_flight += 1
        try:
            yield
        finally:
            with self._lock:
                self.in_flight -= 1

    def report(self) -> dict:
        """Operator-facing counters (merged into ``reliability_report``)."""
        with self._lock:
            out = dict(self.counters)
            out["in_flight"] = self.in_flight
            out["tokens"] = round(self.bucket.tokens, 6)
            return out
