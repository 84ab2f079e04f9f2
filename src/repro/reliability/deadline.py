"""Query deadlines, retry-with-backoff, and the degradation ladder.

A query issued with a time budget must return *something* useful inside
that budget.  The ladder runs the requested method first and falls back to
progressively cheaper evaluations, following each method's ``cheaper`` link
in the method table (:mod:`repro.methods.table`)::

    fr  ->  pa  ->  dh-optimistic

:func:`ladder_for` is the one place a request becomes rungs: the admission
controller prices the same rungs when tokens are short, and a query without
a budget is the one-rung case of :func:`evaluate_with_degradation`.

FR checks the deadline cooperatively at every candidate-cell refinement;
PA checks at entry (its bound-then-evaluate pass is about a millisecond
and all-or-nothing); the histogram bounds are one array expression over the
m^2 cells (measured 0.6-0.8 ms at CH2K against PA's 1-1.7 and FR's 5-7, see
docs/reliability.md) and always run.  The budget is *sliced* geometrically
across the rungs — at each non-terminal rung's entry the rung may spend
half of the budget still remaining, the last rung is unbounded — so that
when FR blows its slice there is still budget left for PA to produce an
approximate answer *within* the overall deadline, rather than falling
straight to the loosest bound.

Transient faults (:class:`~repro.core.errors.TransientFaultError`) are
retried with exponential backoff inside a rung; once retries are
exhausted the ladder degrades to the next rung instead of failing the
query.  The returned :class:`~repro.core.query.QueryResult` carries
``degraded`` / ``requested_method`` so callers can tell exactly what they
got.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple, TypeVar

from ..core.errors import (
    DeadlineExceededError,
    InvalidParameterError,
    QueryError,
    TransientFaultError,
)
from ..core.query import QueryResult, SnapshotPDRQuery
from ..methods.table import method_named
from ..telemetry import TELEMETRY
from ..telemetry import instruments as tm
from .faults import Clock

__all__ = [
    "Deadline",
    "run_with_retries",
    "ladder_for",
    "evaluate_with_degradation",
]

T = TypeVar("T")

# Transient-fault retries inside one rung, and the first backoff (seconds
# on the server clock; the n-th retry waits BACKOFF_SECONDS * 2**n).
RETRIES = 2
BACKOFF_SECONDS = 0.05


class Deadline:
    """An absolute expiry on a clock, checked cooperatively."""

    def __init__(self, seconds: float, clock: Clock) -> None:
        if seconds <= 0:
            raise InvalidParameterError(f"deadline must be positive, got {seconds}")
        self.clock = clock
        self.started = clock.now()
        self.expires_at = self.started + seconds

    def remaining(self) -> float:
        return self.expires_at - self.clock.now()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0

    def check(self, site: str = "") -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent."""
        if self.expired:
            where = f" at {site}" if site else ""
            raise DeadlineExceededError(
                f"query budget exhausted{where} "
                f"({self.clock.now() - self.started:.3f}s elapsed)"
            )

    def sliced(self, seconds_from_start: float) -> "Deadline":
        """A sub-deadline expiring earlier, sharing this deadline's clock."""
        sub = Deadline.__new__(Deadline)
        sub.clock = self.clock
        sub.started = self.started
        sub.expires_at = min(self.expires_at, self.started + seconds_from_start)
        return sub


def run_with_retries(
    fn: Callable[[], T],
    clock: Clock,
    deadline: Optional[Deadline] = None,
) -> Tuple[T, int]:
    """Run ``fn``, retrying transient faults with exponential backoff:
    :data:`RETRIES` retries, the ``n``-th after ``BACKOFF_SECONDS * 2**n``.

    Returns ``(result, attempts_used_beyond_the_first)``.  Only
    :class:`TransientFaultError` is retried; a deadline (when given) is
    checked before each attempt so retries cannot outlive the budget.
    """
    attempt = 0
    while True:
        if deadline is not None:
            deadline.check("retry")
        try:
            return fn(), attempt
        except TransientFaultError:
            if attempt >= RETRIES:
                raise
            clock.sleep(BACKOFF_SECONDS * (2 ** attempt))
            attempt += 1


def ladder_for(
    method: str,
    query: Optional[SnapshotPDRQuery] = None,
    pa_l: Optional[float] = None,
) -> List[str]:
    """The fallback rungs for ``method``, cheapest last: the method itself,
    then each row's ``cheaper`` link in the method table down to a terminal
    histogram bound.  An unknown method raises ``InvalidParameterError``.

    Given the query, the PA rung is dropped when the query's ``l`` differs
    from ``pa_l``, the edge the polynomial surfaces were built for (PA fixes
    ``l`` at construction, Section 6).
    """
    rungs: List[str] = []
    name: Optional[str] = method
    while name is not None:
        rungs.append(name)
        name = method_named(name).cheaper
    if query is not None and abs(query.l - pa_l) > 1e-9:
        rungs = [r for r in rungs if r != "pa"]
    return rungs


def evaluate_with_degradation(
    server,
    method: str,
    query: SnapshotPDRQuery,
    budget_seconds: Optional[float],
) -> QueryResult:
    """Evaluate ``query``, degrading down the ladder to stay inside the budget.

    ``budget_seconds=None`` is the one-rung case: ``method`` alone runs, with
    no deadline, and a transient fault that outlives its retries is raised.
    """
    clock = server.clock
    if budget_seconds is None:
        deadline, rungs = None, [method]
    else:
        deadline = Deadline(budget_seconds, clock)
        rungs = ladder_for(method, query, server.pa.l)
    fallbacks = 0
    total_retries = 0
    for i, rung in enumerate(rungs):
        last = i == len(rungs) - 1
        if last:
            # the last rung runs to completion: a terminal bound always
            # answers, and a query without a budget has no clock to beat
            rung_deadline = None
        else:
            # Geometric slicing against the budget *remaining at rung
            # entry*: this rung may spend half of it, so even when a rung
            # overshoots its slice (deadlines are cooperative — an
            # expensive step finishes before the check catches it) the
            # rungs below still receive half of whatever is left.
            remaining = deadline.remaining()
            if remaining <= 0:
                fallbacks += 1
                tm.LADDER_FALLBACKS.labels(rung).inc()
                continue
            rung_deadline = deadline.sliced(
                (clock.now() - deadline.started) + remaining / 2.0
            )
        try:
            with TELEMETRY.tracer.span("rung", method=rung) as rung_span:
                result, attempts = run_with_retries(
                    lambda r=rung, d=rung_deadline: server.evaluate(
                        r, query, deadline=d
                    ),
                    clock,
                    deadline=rung_deadline,
                )
            total_retries += attempts
            if attempts:
                tm.QUERY_RETRIES.inc(attempts)
        except DeadlineExceededError:
            fallbacks += 1
            tm.LADDER_FALLBACKS.labels(rung).inc()
            continue
        except TransientFaultError:
            if last:
                raise
            fallbacks += 1
            tm.LADDER_FALLBACKS.labels(rung).inc()
            continue
        rung_span.set(retries=attempts)
        result.requested_method = method
        result.degraded = rung != method
        if deadline is not None:
            result.stats.extra["deadline_seconds"] = float(budget_seconds)
            result.stats.extra["deadline_spent"] = clock.now() - deadline.started
        if fallbacks:
            result.stats.extra["ladder_fallbacks"] = float(fallbacks)
        if total_retries:
            result.stats.extra["retries"] = float(total_retries)
        return result
    raise QueryError(
        f"degradation ladder exhausted for method {method!r}"
    )  # pragma: no cover - the terminal rung returns or raises transient
