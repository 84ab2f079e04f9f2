"""The public façade: a PDR-capable moving-objects server.

:class:`PDRServer` wires together every maintained structure the paper
uses — the object table, the TPR-tree over a simulated buffer pool, the
per-timestamp density histograms and the per-timestamp Chebyshev
surfaces — behind one update entry point (:meth:`report` /
:meth:`advance_to`) and one query entry point (:meth:`query`) that selects
the evaluation method by name — ``"fr"`` (exact, Section 5), ``"pa"``
(approximate, Section 6), the histogram bounds and the baselines; the method
table in :mod:`repro.methods.table` lists every name with its evaluator,
admission cost and fallback.

The server also hosts the reliability layer (:mod:`repro.reliability`):

* every :meth:`report` is validated at this boundary; rejects land in
  :attr:`dead_letters` instead of corrupting the maintained structures;
* :meth:`query` accepts a ``deadline`` budget and degrades down the
  ``fr -> pa -> dh-optimistic`` ladder instead of missing it;
* with ``reliability.state_dir`` set, accepted updates are write-ahead
  logged and periodically checkpointed, and :meth:`recover` rebuilds an
  identical server after a crash.

This is the class the examples and the experiment harness build on.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Iterable, List, Optional, Sequence, Tuple

from ..histogram.density_histogram import DensityHistogram
from ..index.tree import TPRTree
from ..methods.fr import FRMethod
from ..methods.interval import evaluate_interval, evaluate_interval_fr
from ..methods.pa import PAMethod
from ..methods.table import method_named
from ..motion.model import Motion
from ..motion.table import ObjectTable
from ..reliability.deadline import evaluate_with_degradation
from ..reliability.faults import MonotonicClock
from ..reliability.validation import (
    DeadLetterQueue,
    RejectedReport,
    ReliabilityConfig,
    ReportValidator,
)
from ..storage import pages
from ..storage.buffer import BufferPool
from ..telemetry import TELEMETRY
from ..telemetry import instruments as tm
from ..telemetry.journal import JOURNAL
from .config import SystemConfig
from .errors import (
    InvalidParameterError,
    ReadOnlyError,
    StorageError,
    WALWriteError,
)
from .query import (
    IntervalPDRQuery,
    QueryResult,
    SnapshotPDRQuery,
    relative_to_absolute_threshold,
)

__all__ = ["PDRServer"]

# The FR stages whose seconds the reliability report sums; "bnb" is PA's.
_FR_STAGES = ("filter", "fuse", "fetch", "sweep", "merge")
_STAGES = _FR_STAGES + ("bnb",)
# The retry hint (seconds) a write refused in read-only mode carries.
READONLY_RETRY_AFTER = 0.5


class PDRServer:
    """A complete PDR query-processing stack."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        expected_objects: int = 100_000,
        tnow: int = 0,
        reliability: Optional[ReliabilityConfig] = None,
        role: str = "primary",
    ) -> None:
        if role not in ("primary", "replica"):
            raise InvalidParameterError(
                f"role must be 'primary' or 'replica', got {role!r}"
            )
        self.config = config or SystemConfig()
        cfg = self.config
        self.reliability = reliability or ReliabilityConfig()
        if role == "replica" and self.reliability.state_dir is not None:
            raise InvalidParameterError(
                "replicas hold no WAL of their own; durability belongs to "
                "the primary (a promoted replica attaches the group's "
                "manager instead)"
            )
        self.role = role
        self.epoch = 0
        # Read-only degraded mode: queries keep serving, writes raise
        # ReadOnlyError.  Entered on a hard disk-budget watermark or a
        # poisoned WAL descriptor; left through probe_resources().
        self.read_only = False
        self.read_only_reason = ""
        # Bumped (and persisted in server-config.json) each time this
        # state directory goes through checkpoint+replay recovery.
        self.recovery_generation = 0
        self.query_counters: Counter = Counter()
        # Per-stage seconds accumulated across served queries (summed
        # ``stats.extra["<stage>_seconds"]``), for the reliability report.
        self.stage_seconds: Counter = Counter()
        self.expected_objects = expected_objects
        self.faults = self.reliability.faults
        # An injector brings its own (virtual) clock, which then also
        # drives deadlines and retry backoff; without one, real time.
        self.clock = self.faults.clock if self.faults is not None else MonotonicClock()
        self.dead_letters = DeadLetterQueue()
        self._validator = ReportValidator(cfg.domain)
        self.table = ObjectTable(tnow=tnow)
        self.buffer = BufferPool(
            capacity_pages=pages.buffer_pages(expected_objects),
            faults=self.faults,
        )
        self.tree = TPRTree(self.table, horizon=cfg.horizon, buffer_pool=self.buffer)
        self.histogram = DensityHistogram(
            cfg.domain,
            m=cfg.histogram_cells,
            horizon=cfg.horizon,
            tnow=tnow,
            prediction_window=cfg.prediction_window,
            table=self.table,
        )
        self.pa = PAMethod(
            cfg.domain,
            l=cfg.l,
            horizon=cfg.horizon,
            g=cfg.polynomial_grid,
            k=cfg.polynomial_degree,
            md=cfg.evaluation_grid,
            tnow=tnow,
            faults=self.faults,
            prediction_window=cfg.prediction_window,
            table=self.table,
        )
        self.table.add_listener(self.histogram)
        self.table.add_listener(self.pa)
        self.table.add_listener(self.tree)
        self._fr = FRMethod(self.histogram, self.tree, faults=self.faults)
        self._manager = None
        if self.reliability.state_dir is not None:
            from ..reliability.recovery import ReliabilityManager

            self._manager = ReliabilityManager.create_fresh(self, self.reliability)

    # ------------------------------------------------------------------
    # update side
    # ------------------------------------------------------------------
    @property
    def tnow(self) -> int:
        return self.table.tnow

    def report(
        self,
        oid: int,
        x: float,
        y: float,
        vx: float,
        vy: float,
        t: Optional[int] = None,
    ) -> Optional[Motion]:
        """Process one location report (delete + insert per Section 5.1).

        A one-report :meth:`report_batch` that also checks the report's own
        timestamp ``t`` against the server clock: a malformed report is
        quarantined in :attr:`dead_letters` and ``None`` is returned — none
        of the maintained structures see it.  An accepted report is
        write-ahead logged (when durability is on) and applied everywhere,
        returning the registered :class:`Motion`.
        """
        return self._ingest([(oid, x, y, vx, vy)], t)[0]

    def _check_writable(self) -> None:
        if self.role != "primary":
            from .errors import NotPrimaryError

            raise NotPrimaryError(
                f"server is {self.role!r} (epoch {self.epoch}); writes must "
                "go to the acting primary"
            )
        if self.read_only:
            raise ReadOnlyError(
                f"server is in read-only degraded mode "
                f"({self.read_only_reason}); writes are refused",
                retry_after=READONLY_RETRY_AFTER,
                reason=self.read_only_reason,
            )

    def _log_guarded(self, log_fn, *args) -> None:
        """Run one WAL-logging call; a poisoned descriptor degrades the
        server to read-only before the error surfaces to the caller (the
        record was never acked, so refusing further writes loses nothing)."""
        try:
            log_fn(*args)
        except WALWriteError as exc:
            resources = getattr(self._manager, "resources", None)
            if resources is not None:
                resources.note_wal_failure(self, exc)
            else:
                self.enter_read_only(f"WAL poisoned: {exc}")
            raise

    def _resource_check(self) -> None:
        """Evaluate the disk/memory budget after a successful write."""
        resources = getattr(self._manager, "resources", None)
        if resources is not None:
            resources.check(self)

    # ------------------------------------------------------------------
    # read-only degraded mode
    # ------------------------------------------------------------------
    def enter_read_only(self, reason: str) -> None:
        """Refuse writes (queries keep serving) until a probe clears it."""
        if not self.read_only:  # journal actual transitions, not re-entries
            JOURNAL.emit("readonly_enter", reason=reason)
        self.read_only = True
        self.read_only_reason = reason
        tm.READONLY.set(1)

    def exit_read_only(self) -> None:
        if self.read_only:
            JOURNAL.emit("readonly_exit")
        self.read_only = False
        self.read_only_reason = ""
        tm.READONLY.set(0)

    def probe_resources(self) -> bool:
        """Try to leave read-only mode; returns True when writable.

        With a resource manager configured this is its full probe (fresh
        WAL segment past a poisoned one, prune, re-check the budget);
        without one it still heals a poisoned WAL, which is the only
        other way into read-only mode.
        """
        resources = getattr(self._manager, "resources", None)
        if resources is not None:
            return resources.probe(self)
        if not self.read_only:
            return True
        if self._manager is not None and self._manager.wal_poisoned:
            try:
                self._manager.reopen_wal()
            except OSError:
                return False
        self.exit_read_only()
        return True

    def report_batch(
        self, reports: Sequence[Tuple[int, float, float, float, float]]
    ) -> List[Optional[Motion]]:
        """Process a wave of ``(oid, x, y, vx, vy)`` reports in one pass.

        Every report is validated; rejects land in :attr:`dead_letters`.
        The accepted reports are write-ahead logged in a single group commit
        (one fsync for the wave) and applied as one
        :meth:`ObjectTable.report_batch` wave (one numpy pass per
        structure).  Returns a list aligned with the input: the registered
        :class:`Motion` per accepted report, ``None`` per rejected one.
        """
        return self._ingest(reports, None)

    def _ingest(
        self,
        reports: Sequence[Tuple[int, float, float, float, float]],
        t: Optional[int],
    ) -> List[Optional[Motion]]:
        """The write path of :meth:`report` and :meth:`report_batch`:
        validate -> dead-letter -> WAL -> fault site -> apply."""
        self._check_writable()
        tnow = self.table.tnow
        results: List[Optional[Motion]] = [None] * len(reports)
        accepted: List[Tuple[int, float, float, float, float]] = []
        slots: List[int] = []
        for i, (oid, x, y, vx, vy) in enumerate(reports):
            verdict = self._validator.validate(oid, x, y, vx, vy, t, tnow)
            if verdict is not None:
                reason, detail = verdict
                self.dead_letters.push(
                    RejectedReport(
                        oid=oid, x=x, y=y, vx=vx, vy=vy, t=t,
                        tnow=tnow, reason=reason, detail=detail,
                    )
                )
                continue
            accepted.append((oid, x, y, vx, vy))
            slots.append(i)
        rejected = len(reports) - len(accepted)
        if rejected:
            tm.INGEST_REPORTS.labels("rejected").inc(rejected)
            tm.DEAD_LETTERS.inc(rejected)
        if accepted:
            tm.INGEST_REPORTS.labels("accepted").inc(len(accepted))
        if not accepted:
            return results
        if self._manager is not None:
            self._log_guarded(self._manager.log_report_batch, accepted, tnow)
        if self.faults is not None:
            self.faults.hit("report.apply")
        motions = self.table.report_batch(accepted)
        for slot, motion in zip(slots, motions):
            results[slot] = motion
        self._resource_check()
        return results

    def retire(self, oid: int) -> bool:
        """Remove ``oid`` permanently.  Unknown ids are quarantined, not
        raised: a double-retire (e.g. a duplicated departure message) must
        not take the serving path down."""
        self._check_writable()
        # The type rule first: ``True`` and ``3.0`` hash equal to 1 and 3, so
        # a bare membership test would retire somebody else's object.
        integral = isinstance(oid, int) and not isinstance(oid, bool)
        if not integral or oid not in self.table:
            self.dead_letters.push(
                RejectedReport(
                    oid=oid, x=float("nan"), y=float("nan"),
                    vx=float("nan"), vy=float("nan"), t=None,
                    tnow=self.table.tnow,
                    reason="unknown_oid" if integral else "bad_oid",
                    detail=f"cannot retire unknown object {oid!r}",
                )
            )
            tm.DEAD_LETTERS.inc()
            return False
        if self._manager is not None:
            self._log_guarded(self._manager.log_retire, oid, self.table.tnow)
        if self.faults is not None:
            self.faults.hit("report.apply")
        self.table.retire(oid)
        self._resource_check()
        return True

    def advance_to(self, tnow: int) -> None:
        """Move the server clock; retires histogram/PA slots and builds the
        ones entering the query window."""
        self._check_writable()
        if tnow == self.table.tnow:
            return
        if tnow < self.table.tnow:
            raise InvalidParameterError(
                f"clock cannot move backwards ({self.table.tnow} -> {tnow})"
            )
        if self._manager is not None:
            self._log_guarded(self._manager.log_advance, tnow)
        if self.faults is not None:
            self.faults.hit("advance.apply")
        self.table.advance_to(tnow)
        if self._manager is not None:
            self._manager.maybe_checkpoint(self, tnow)
        self._resource_check()

    def object_count(self) -> int:
        return len(self.table)

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def apply_logged_records(self, records: Iterable[dict]) -> None:
        """Replay WAL records in order (recovery and replica catch-up only —
        bypasses validation and logging).

        Each run of consecutive ``report`` records logged at one tick is
        applied as one :meth:`ObjectTable.report_batch` wave, which leaves
        the state a record-at-a-time replay would, bit for bit.
        """
        wave: List[Tuple[int, float, float, float, float]] = []
        wave_t = None

        def flush() -> None:
            if wave:
                self.table.report_batch(wave)
                wave.clear()

        for record in records:
            op = record["op"]
            if op == "report":
                if record["t"] != wave_t:
                    flush()
                    wave_t = record["t"]
                wave.append(
                    (
                        int(record["oid"]),
                        float(record["x"]),
                        float(record["y"]),
                        float(record["vx"]),
                        float(record["vy"]),
                    )
                )
                continue
            flush()
            if op == "retire":
                self.table.retire(int(record["oid"]))
            elif op == "advance":
                t = int(record["t"])
                if t > self.table.tnow:
                    self.table.advance_to(t)
            elif op == "epoch":
                self.epoch = max(self.epoch, int(record["epoch"]))
            else:
                raise StorageError(f"unknown update-log op {op!r}")
        flush()

    def attach_manager(self, manager) -> None:
        """Re-attach durability after recovery / failover.

        A superseded manager's WAL descriptor is closed here — repeated
        recover/attach cycles must not accumulate open fds."""
        if self._manager is not None and self._manager is not manager:
            self._manager.close()
        self._manager = manager

    # ------------------------------------------------------------------
    # replication roles
    # ------------------------------------------------------------------
    def promote(self, epoch: int) -> None:
        """Make this server the acting primary at fencing term ``epoch``.

        Called by the failover coordinator after the replica has caught
        up to the durable WAL and passed the structural audit.  The epoch
        must strictly advance; when a manager is attached the bump is
        written to the WAL so recovery (and every other replica) learns
        the fencing point.
        """
        if epoch <= self.epoch:
            raise InvalidParameterError(
                f"promotion epoch must exceed the current epoch "
                f"({epoch} <= {self.epoch})"
            )
        self.role = "primary"
        self.epoch = epoch
        if self._manager is not None:
            self._log_guarded(self._manager.log_epoch, epoch, self.tnow)

    def demote(self) -> None:
        """Fence this server out of the primary role; its writes now raise."""
        self.role = "fenced"

    @property
    def wal_lsn(self) -> Optional[int]:
        """LSN of the last durably logged update (``None``: no durability)."""
        return self._manager.lsn if self._manager is not None else None

    def checkpoint(self) -> int:
        """Force a checkpoint now; returns its sequence number."""
        if self._manager is None:
            raise StorageError("server has no state_dir; durability is off")
        return self._manager.checkpoint(self)

    def close(self) -> None:
        """Release the WAL file handle (safe to call without durability)."""
        if self._manager is not None:
            self._manager.close()

    @classmethod
    def recover(
        cls,
        state_dir: str,
        faults=None,
        audit: bool = True,
        expected_objects: Optional[int] = None,
    ) -> "PDRServer":
        """Rebuild a server from ``state_dir``: newest loadable checkpoint
        plus replay of the update log, then a structural audit."""
        from ..reliability.recovery import recover_server

        return recover_server(
            state_dir, faults=faults, audit=audit, expected_objects=expected_objects
        )

    def audit(self, raise_on_violation: bool = True) -> List[str]:
        """Cross-check table / tree / histogram / PA consistency."""
        from ..reliability.recovery import audit_server

        return audit_server(self, raise_on_violation=raise_on_violation)

    # ------------------------------------------------------------------
    # query side
    # ------------------------------------------------------------------
    def make_query(
        self,
        qt: int,
        l: Optional[float] = None,
        rho: Optional[float] = None,
        varrho: Optional[float] = None,
    ) -> SnapshotPDRQuery:
        """Construct a snapshot query, resolving the relative threshold.

        Exactly one of ``rho`` (absolute, objects per unit area) and
        ``varrho`` (relative to the current average density, as in
        Section 7) must be given.  ``l`` defaults to the configured edge.
        """
        if (rho is None) == (varrho is None):
            raise InvalidParameterError("provide exactly one of rho and varrho")
        if rho is None:
            rho = relative_to_absolute_threshold(
                varrho, len(self.table), self.config.domain.area
            )
        return SnapshotPDRQuery(rho=rho, l=l if l is not None else self.config.l, qt=qt)

    def query(
        self,
        method: str,
        qt: int,
        l: Optional[float] = None,
        rho: Optional[float] = None,
        varrho: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> QueryResult:
        """Evaluate a snapshot PDR query with the named method.

        ``deadline`` (seconds on the server clock) turns on graceful
        degradation: the requested method runs first and the ladder falls
        back to cheaper evaluations (``fr -> pa -> dh-optimistic``) so an
        answer is produced within the budget; the result's
        ``requested_method`` / ``degraded`` fields say what actually ran.
        Without one the requested method alone runs.  Transient faults are
        retried with exponential backoff either way
        (:func:`~repro.reliability.deadline.run_with_retries`).  An unknown
        ``method`` is refused before anything is evaluated or counted.
        """
        method_named(method)
        q = self.make_query(qt=qt, l=l, rho=rho, varrho=varrho)
        start = time.perf_counter()
        with TELEMETRY.tracer.trace(
            "query", method=method, qt=q.qt, l=q.l, rho=q.rho, role=self.role
        ) as span:
            result = evaluate_with_degradation(self, method, q, budget_seconds=deadline)
            span.set(
                served_method=result.stats.method,
                degraded=result.degraded,
                answer_area=result.area(),
            )
        self._account_query(method, result, span, time.perf_counter() - start)
        return result

    def _account_query(self, method, result, span, seconds) -> None:
        """Fold one served query into counters, histograms and the slow log.

        ``stats.extra["<stage>_seconds"]`` is the one record of where the
        evaluation's time went — each method times a stage once, stores the
        float there and hands the same float to the trace as a leaf — so the
        stage histograms, ``stage_seconds`` and the ``reliability_report``
        view are all read from it, traced or not.  ``seconds`` is the wall
        time of the whole query.
        """
        self.query_counters["served"] += 1
        if result.degraded:
            self.query_counters["degraded"] += 1
        extra = result.stats.extra
        served = result.stats.method
        for stage in _STAGES:
            spent = extra.get(f"{stage}_seconds", 0.0)
            self.stage_seconds[stage] += spent
            if spent > 0.0:
                tm.QUERY_STAGE_SECONDS.labels(served, stage).observe(spent)
        tm.QUERIES.labels(method, "degraded" if result.degraded else "ok").inc()
        tm.slo_record(seconds)
        tm.QUERY_SECONDS.labels(method).observe(seconds)
        TELEMETRY.note_query(span, result, requested_method=method)

    def evaluate(
        self, method: str, q: SnapshotPDRQuery, deadline=None
    ) -> QueryResult:
        """Evaluate an already-constructed query with one row of the method
        table (:mod:`repro.methods.table`).

        ``deadline`` is a :class:`~repro.reliability.deadline.Deadline`
        checked cooperatively by the methods that can run long (FR at each
        candidate refinement, PA at entry); the histogram bounds and
        baselines ignore it.
        """
        return method_named(method).evaluate(self, q, deadline)

    def query_interval(
        self,
        method: str,
        qt1: int,
        qt2: int,
        l: Optional[float] = None,
        rho: Optional[float] = None,
        varrho: Optional[float] = None,
    ) -> QueryResult:
        """Evaluate an interval PDR query (Definition 5) with the named method.

        ``"fr"`` runs the interval-level filter (accept a cell once for the
        whole union, refine candidates only at the timestamps that need it,
        one shared index traversal); every other method is lifted snapshot
        by snapshot.
        """
        base = self.make_query(qt=qt1, l=l, rho=rho, varrho=varrho)
        interval = IntervalPDRQuery(rho=base.rho, l=base.l, qt1=qt1, qt2=qt2)
        if method == "fr":
            return evaluate_interval_fr(self._fr, interval)
        return evaluate_interval(lambda s: self.evaluate(method, s), interval)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def memory_report(self) -> dict:
        """Bytes held by each maintained structure (paper's Section 7 figures)."""
        return {
            "density_histogram": self.histogram.memory_bytes(),
            "polynomials": self.pa.memory_bytes(),
            "buffer_pages": self.buffer.capacity,
        }

    def reliability_report(self) -> dict:
        """Operator-facing counters for the reliability layer."""
        resources = getattr(self._manager, "resources", None)
        return {
            "role": self.role,
            "epoch": self.epoch,
            "recovery_generation": self.recovery_generation,
            "read_only": self.read_only,
            "read_only_reason": self.read_only_reason,
            "resources": resources.report() if resources is not None else None,
            "dead_letter_total": self.dead_letters.total,
            "dead_letter_counts": dict(self.dead_letters.counts),
            "queries_served": self.query_counters["served"],
            "queries_degraded": self.query_counters["degraded"],
            "wal_lsn": self.wal_lsn,
            "query_stage_seconds": {
                stage: self.stage_seconds[stage] for stage in _FR_STAGES
            },
            "histogram_cache": {
                "hits": self.histogram.cache_hits,
                "misses": self.histogram.cache_misses,
            },
        }
