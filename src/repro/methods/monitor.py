"""Continuous PDR monitoring — an extension beyond the paper's snapshots.

The paper evaluates one-shot snapshot queries; operational deployments
(traffic control rooms, dispatch systems) instead want a *standing* query:
"keep telling me where the dense regions will be ``offset`` timestamps from
now, and what changed".  :class:`PDRMonitor` subscribes to the server clock
and re-evaluates a fixed PDR query every ``every`` timestamps, reporting the
answer plus the appeared/vanished area relative to the previous evaluation.

Because the PA method keeps per-timestamp coefficients for the whole query
window anyway (the monitor's offset is at most W), continuous evaluation
costs exactly one B&B pass per tick — there is no extra maintained state.

A standing query must outlive individual failures: an evaluation that dies
(an I/O fault, an exhausted retry budget) is recorded as a ``failed``
:class:`MonitorEvent` rather than unwinding the server's clock advance, and
one that fell down the degradation ladder is recorded as ``degraded``.
Only a simulated process crash (``InjectedCrashError``, a
``BaseException``) propagates — a dead process monitors nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.errors import AdmissionRejectedError, InvalidParameterError, ReproError
from ..core.query import QueryResult
from ..core.regions import RegionSet
from ..motion.updates import Columns, UpdateListener

__all__ = ["MonitorEvent", "PDRMonitor"]


@dataclass
class MonitorEvent:
    """One evaluation of the standing query.

    ``status`` is ``"ok"``, ``"degraded"`` (the deadline ladder answered
    with a cheaper method), ``"shed"`` (the admission controller rejected
    the evaluation to protect an overloaded group; ``retry_after`` says
    when to expect capacity) or ``"failed"`` (the evaluation raised;
    ``error`` holds the message and ``result`` is ``None``).
    """

    tnow: int
    qt: int
    regions: RegionSet
    appeared_area: float  # newly dense area vs the previous event
    vanished_area: float  # area that stopped being dense
    result: Optional[QueryResult]
    status: str = "ok"
    error: Optional[str] = None
    retry_after: Optional[float] = None
    # Histogram-cache hits/misses this evaluation incurred (0 for methods
    # that never touch the filter, e.g. pure PA evaluations).
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def changed(self) -> bool:
        return self.appeared_area > 1e-9 or self.vanished_area > 1e-9


class PDRMonitor(UpdateListener):
    """A standing predictive PDR query over a :class:`~repro.core.system.PDRServer`.

    Attach with ``server.table.add_listener(monitor)``; each time the clock
    advances across an evaluation boundary the monitor evaluates the query
    at ``t_now + offset`` and appends a :class:`MonitorEvent`.  ``varrho``
    re-resolves against the live object count at every tick (a fixed ``rho``
    may be given instead).  ``deadline`` (seconds per evaluation) turns on
    the degradation ladder so a slow tick yields an approximate event
    instead of a late one.
    """

    def __init__(
        self,
        server,
        offset: int = 0,
        every: int = 1,
        method: str = "pa",
        l: Optional[float] = None,
        rho: Optional[float] = None,
        varrho: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> None:
        if every < 1:
            raise InvalidParameterError(f"every must be >= 1, got {every}")
        if offset < 0:
            raise InvalidParameterError(f"offset must be >= 0, got {offset}")
        if offset > server.config.prediction_window:
            raise InvalidParameterError(
                f"offset {offset} exceeds the prediction window "
                f"W={server.config.prediction_window}"
            )
        if (rho is None) == (varrho is None):
            raise InvalidParameterError("provide exactly one of rho and varrho")
        self.server = server
        self.offset = offset
        self.every = every
        self.method = method
        self.l = l
        self.rho = rho
        self.varrho = varrho
        self.deadline = deadline
        self.events: List[MonitorEvent] = []
        self._last_eval: Optional[int] = None
        self._previous: RegionSet = RegionSet()

    # ------------------------------------------------------------------
    def poll(self) -> MonitorEvent:
        """Force one evaluation at the current time.

        Never raises a :class:`ReproError`: a failed evaluation becomes a
        ``failed`` event (the previous dense picture is kept as the diff
        baseline, so the next successful event diffs against the last
        *known* answer, not against emptiness).
        """
        tnow = self.server.tnow
        qt = tnow + self.offset
        self._last_eval = tnow
        try:
            result = self.server.query(
                self.method, qt=qt, l=self.l, rho=self.rho, varrho=self.varrho,
                deadline=self.deadline,
            )
        except AdmissionRejectedError as exc:
            event = MonitorEvent(
                tnow=tnow,
                qt=qt,
                regions=RegionSet(),
                appeared_area=0.0,
                vanished_area=0.0,
                result=None,
                status="shed",
                error=f"{type(exc).__name__}: {exc}",
                retry_after=exc.retry_after,
            )
            self.events.append(event)
            return event
        except ReproError as exc:
            event = MonitorEvent(
                tnow=tnow,
                qt=qt,
                regions=RegionSet(),
                appeared_area=0.0,
                vanished_area=0.0,
                result=None,
                status="failed",
                error=f"{type(exc).__name__}: {exc}",
            )
            self.events.append(event)
            return event
        appeared = result.regions.difference_area(self._previous)
        vanished = self._previous.difference_area(result.regions)
        event = MonitorEvent(
            tnow=tnow,
            qt=qt,
            regions=result.regions,
            appeared_area=appeared,
            vanished_area=vanished,
            result=result,
            status="degraded" if result.degraded else "ok",
            cache_hits=int(result.stats.extra.get("cache_hits", 0.0)),
            cache_misses=int(result.stats.extra.get("cache_misses", 0.0)),
        )
        self.events.append(event)
        self._previous = result.regions
        return event

    def on_advance(self, tnow: int, motions: Columns) -> None:
        if self._last_eval is None or tnow - self._last_eval >= self.every:
            self.poll()

    @property
    def latest(self) -> Optional[MonitorEvent]:
        return self.events[-1] if self.events else None

    def changed_events(self) -> List[MonitorEvent]:
        """Only the evaluations where the dense picture actually moved.

        Failed and shed evaluations never count as change: an unknown
        answer is not an empty one.
        """
        return [
            e for e in self.events
            if e.status not in ("failed", "shed") and e.changed
        ]

    def failed_events(self) -> List[MonitorEvent]:
        """The evaluations that raised (for alerting/backfill)."""
        return [e for e in self.events if e.status == "failed"]

    def shed_events(self) -> List[MonitorEvent]:
        """The evaluations the admission controller rejected under load."""
        return [e for e in self.events if e.status == "shed"]
