"""Replicated PDR serving: WAL shipping, failover, and fencing.

A :class:`ReplicationGroup` turns one durable
:class:`~repro.core.system.PDRServer` (the primary, which owns the WAL)
plus N in-memory replicas into a serving tier:

* **WAL shipping.**  Every record the primary durably appends is handed
  to the group (via the manager's ``on_append`` hook) and queued on one
  :class:`ReplicationLink` per replica.  Links are an in-process stand-in
  for the network and expose its failure modes as deterministic knobs —
  ``lag_records`` (delivery stays N records behind), ``partitioned``
  (nothing is delivered), :meth:`~ReplicationLink.drop_next` (records are
  lost) and :meth:`~ReplicationLink.reorder_next` (records arrive out of
  order) — plus the ``replication.send`` / ``replication.deliver`` fault
  sites for the :class:`~repro.reliability.faults.FaultInjector`.
* **In-order apply.**  A :class:`Replica` holds out-of-order arrivals in
  a reorder buffer and applies records strictly by LSN through the same
  ``apply_logged_records`` path recovery uses, so a caught-up replica is
  *bit-exact* with the primary (identical numpy operations in identical
  order) — the same guarantee crash recovery gives.
* **Catch-up.**  A replica that lost records (drop, partition, joining
  late) heals from the durable log: :func:`records_from_lsn` replays the
  tail, and when the needed segments were pruned it installs the newest
  checkpoint image first (:func:`load_latest_checkpoint`) — exactly the
  two artefacts recovery itself uses.
* **Failover.**  A :class:`FailoverCoordinator` tracks the primary's
  heartbeats under a lease; when the lease lapses the group promotes the
  most-caught-up replica — after it has replayed the durable WAL to the
  end (zero acknowledged-write loss: an acknowledged write is by
  definition in the WAL) and passed the structural audit — bumps the
  fencing ``epoch``, demotes the old primary (its writes now raise
  :class:`~repro.core.errors.NotPrimaryError`) and re-points the router.
  Replicas reject shipped records from a stale epoch, so a resurrected
  old primary cannot fork the group.
* **Anti-entropy.**  Replicas retain their applied records (bounded
  history); :meth:`ReplicationGroup.anti_entropy` runs the integrity
  scrubber (:mod:`.integrity`) over the durable state directory,
  quarantines anything failing its checksum, and re-fetches the damaged
  LSN range — or a whole checkpoint image — from the most-caught-up
  replica, so bit rot on the primary's disk heals from the group.
* **Reads.**  Queries are routed to replicas within the configured
  staleness bound (LSN lag), round-robin, each behind a circuit breaker;
  the primary serves reads when no replica qualifies.  An optional
  :class:`~repro.reliability.admission.AdmissionController` shedding
  ladder sits in front (see :mod:`.admission`).

Everything is synchronous and deterministic: the owner calls
:meth:`ReplicationGroup.pump` (implicitly on every write) to move
records across links, and time comes from the group's injectable clock.
"""

from __future__ import annotations

import dataclasses
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.errors import (
    FailoverError,
    HorizonError,
    InvalidParameterError,
    QueryError,
    RecoveryError,
    ReproError,
    StalenessExceededError,
    StorageError,
    TransientFaultError,
)
from ..telemetry import TELEMETRY
from ..telemetry import instruments as tm
from ..telemetry.journal import JOURNAL
from .admission import AdmissionConfig, AdmissionController, CircuitBreaker
from .deadline import ladder_for
from .faults import FaultInjector, InjectedCrashError
from .statedir import load_latest_checkpoint, read_server_config
from .validation import ReliabilityConfig

__all__ = [
    "ShippedRecord",
    "ReplicationLink",
    "Replica",
    "FailoverCoordinator",
    "ReplicationGroup",
]


# How long the coordinator waits for a primary heartbeat before it
# declares the primary dead and fails over (seconds on the group's clock).
LEASE_TIMEOUT = 3.0
# Consecutive backend failures that open a read breaker, and how long it
# then stays open before a half-open probe.
BREAKER_THRESHOLD = 3
BREAKER_PROBATION_SECONDS = 5.0
# Applied records each replica retains for anti-entropy repair of a
# corrupted primary log; past it, repair installs a checkpoint image.
REPAIR_HISTORY = 65536


@dataclass(frozen=True)
class ShippedRecord:
    """One WAL record on the wire, stamped with the sender's epoch."""

    epoch: int
    record: dict

    @property
    def lsn(self) -> int:
        return int(self.record["lsn"])


class ReplicationLink:
    """The in-process 'network' between the primary and one replica."""

    def __init__(self, name: str, faults: Optional[FaultInjector] = None) -> None:
        self.name = name
        self.faults = faults
        self.partitioned = False
        self.lag_records = 0
        self._queue: List[ShippedRecord] = []
        self._drop_next = 0
        self._reorder_next = 0
        self.sent = 0
        self.delivered = 0
        self.dropped = 0

    def send(self, shipped: ShippedRecord) -> None:
        """Queue one record for delivery; may lose it (drop faults)."""
        self.sent += 1
        if self.faults is not None:
            try:
                self.faults.hit("replication.send")
            except TransientFaultError:
                # the network ate the record; catch-up will heal it
                self.dropped += 1
                return
        if self._drop_next > 0:
            self._drop_next -= 1
            self.dropped += 1
            return
        self._queue.append(shipped)

    def drop_next(self, n: int = 1) -> None:
        """Lose the next ``n`` sends (simulated packet loss)."""
        self._drop_next += n

    def reorder_next(self, n: int = 2) -> None:
        """Deliver the next ``n`` queued records in reversed order."""
        self._reorder_next = max(self._reorder_next, n)

    @property
    def queued(self) -> int:
        return len(self._queue)

    def deliverable(self) -> List[ShippedRecord]:
        """Records the link releases this pump (respecting lag/partition)."""
        if self.partitioned:
            return []
        if self.faults is not None:
            try:
                self.faults.hit("replication.deliver")
            except TransientFaultError:
                return []  # delivery deferred; records stay queued
        count = len(self._queue) - self.lag_records
        if count <= 0:
            return []
        batch = self._queue[:count]
        del self._queue[:count]
        if self._reorder_next > 1:
            flip = min(self._reorder_next, len(batch))
            batch[:flip] = reversed(batch[:flip])
            self._reorder_next = 0
        self.delivered += len(batch)
        return batch


class Replica:
    """One replica server plus its apply cursor and reorder buffer.

    Every applied record is also retained (up to :data:`REPAIR_HISTORY`
    entries, oldest evicted first) in :attr:`history` — the record cache
    that anti-entropy repair re-fetches a corrupted primary-log range
    from (:meth:`records_in_range`).
    """

    def __init__(self, name: str, server, link: ReplicationLink) -> None:
        self.name = name
        self.server = server
        self.link = link
        self.applied_lsn = 0
        self.epoch = 0
        self.history: "OrderedDict[int, dict]" = OrderedDict()
        self._pending: Dict[int, dict] = {}
        self.fenced_rejects = 0

    def _remember(self, lsn: int, record: dict) -> None:
        self.history[lsn] = record
        while len(self.history) > REPAIR_HISTORY:
            self.history.popitem(last=False)

    def records_in_range(self, lo: int, hi: int) -> Optional[List[dict]]:
        """The applied records with LSNs in ``[lo, hi]``, or ``None`` if
        the retained history does not cover the whole range (the repair
        caller must then fall back to a checkpoint image)."""
        if lo > hi:
            return []
        if any(lsn not in self.history for lsn in range(lo, hi + 1)):
            return None
        return [self.history[lsn] for lsn in range(lo, hi + 1)]

    def offer(self, shipped: ShippedRecord) -> None:
        """Accept one shipped record into the reorder buffer.

        Records stamped with a stale epoch are rejected outright — this
        is the fencing that stops a deposed primary from forking the
        replica, no matter what LSNs it claims.
        """
        if shipped.epoch < self.epoch:
            self.fenced_rejects += 1
            tm.FENCED_REJECTS.inc()
            return
        self.epoch = shipped.epoch
        if shipped.lsn > self.applied_lsn:
            self._pending[shipped.lsn] = shipped.record

    def drain(self) -> int:
        """Apply buffered records strictly in LSN order; returns count."""
        t0 = time.perf_counter()
        run = []
        while self.applied_lsn + 1 + len(run) in self._pending:
            run.append(self._pending.pop(self.applied_lsn + 1 + len(run)))
        self.server.apply_logged_records(run)
        for record in run:
            self.applied_lsn += 1
            self._remember(self.applied_lsn, record)
        applied = len(run)
        if applied:
            tm.REPLICATION_APPLIED.labels(self.name).inc(applied)
            tm.REPLICATION_APPLY_SECONDS.observe(time.perf_counter() - t0)
        return applied

    def lag(self, acked_lsn: int) -> int:
        """How many acknowledged records this replica has not applied."""
        return max(0, acked_lsn - self.applied_lsn)

    @property
    def stalled(self) -> bool:
        """Buffered records exist that cannot apply (a gap before them)."""
        return bool(self._pending) and (self.applied_lsn + 1) not in self._pending

    # ------------------------------------------------------------------
    # catch-up from the durable log
    # ------------------------------------------------------------------
    def catch_up(self, state_dir: str, prefer_image: bool = False) -> int:
        """Close any gap from the durable WAL in ``state_dir``.

        Replays :func:`records_from_lsn`; when the tail this replica
        needs was pruned (or ``prefer_image`` asks for a fast bootstrap)
        the newest checkpoint image is installed first and the remaining
        tail replayed on top.  Returns the number of records applied.
        """
        from .recovery import records_from_lsn

        self.drain()
        if prefer_image:
            # min_advance=0: a bootstrapping replica installs even an image
            # at its own cursor — a primary restored from a snapshot takes
            # its first checkpoint at LSN 0, and that image carries state
            # (the snapshot contents) that predates the WAL entirely
            self._install_image_if_newer(state_dir, min_advance=0)
        try:
            records = list(records_from_lsn(state_dir, self.applied_lsn))
        except RecoveryError:
            # the log no longer reaches back to our cursor: bootstrap
            # from the newest checkpoint image, then replay the rest
            if not self._install_image_if_newer(state_dir):
                raise
            records = list(records_from_lsn(state_dir, self.applied_lsn))
        self.server.apply_logged_records(records)
        for record in records:
            self.applied_lsn = int(record["lsn"])
            self._remember(self.applied_lsn, record)
        applied = len(records)
        self._pending = {n: r for n, r in self._pending.items() if n > self.applied_lsn}
        self.epoch = max(self.epoch, self.server.epoch)
        return applied

    def _install_image_if_newer(self, state_dir: str, min_advance: int = 1) -> bool:
        """Replace this replica's state with the newest checkpoint image."""
        from ..core.system import PDRServer
        from ..storage.snapshot import restore_server_state

        loaded = load_latest_checkpoint(state_dir)
        if loaded is None:
            return False
        state, sidecar = loaded
        image_lsn = int(sidecar["lsn"])
        if image_lsn < self.applied_lsn + min_advance:
            return False  # our own state is at least as new
        fresh = PDRServer(
            state.config,
            expected_objects=self.server.expected_objects,
            tnow=state.tnow,
            role="replica",
            reliability=ReliabilityConfig(faults=self.server.faults),
        )
        restore_server_state(fresh, state)
        fresh.epoch = self.server.epoch
        self.server = fresh
        self.applied_lsn = image_lsn
        return True


class FailoverCoordinator:
    """Heartbeat bookkeeping under a lease, on an injectable clock."""

    def __init__(self, clock, lease_timeout: float) -> None:
        if lease_timeout <= 0:
            raise InvalidParameterError(
                f"lease timeout must be positive, got {lease_timeout}"
            )
        self.clock = clock
        self.lease_timeout = float(lease_timeout)
        self.last_heartbeat = clock.now()

    def note_heartbeat(self) -> None:
        self.last_heartbeat = self.clock.now()

    @property
    def lease_expired(self) -> bool:
        return self.clock.now() - self.last_heartbeat > self.lease_timeout


class ReplicationGroup:
    """One primary plus N replicas behind a staleness-aware read router.

    ``staleness_bound`` is the maximum LSN lag at which a replica may
    still serve reads (0 = only fully caught-up replicas).
    """

    def __init__(
        self,
        primary,
        n_replicas: int = 2,
        staleness_bound: int = 0,
        admission: Optional[AdmissionConfig] = None,
    ) -> None:
        if primary._manager is None:
            raise InvalidParameterError(
                "replication requires a durable primary (ReliabilityConfig "
                "with a state_dir): acknowledged writes live in its WAL"
            )
        if n_replicas < 0:
            raise InvalidParameterError(f"n_replicas must be >= 0, got {n_replicas}")
        self.staleness_bound = staleness_bound
        self.primary = primary
        self.primary_name = "primary"
        self.primary_alive = True
        self.faults = primary.faults
        self.clock = primary.clock
        self.epoch = max(1, primary.epoch)
        primary.epoch = self.epoch
        self.state_dir = primary.reliability.state_dir
        self._tnow0 = self._read_tnow0(self.state_dir)
        self._acked_lsn = primary.wal_lsn or 0
        self.replicas: List[Replica] = []
        self._rr = 0
        self._breakers: Dict[str, CircuitBreaker] = {}
        self.admission = (
            AdmissionController(admission, self.clock) if admission is not None else None
        )
        self.coordinator = FailoverCoordinator(self.clock, LEASE_TIMEOUT)
        tm.REPLICATION_EPOCH.set(self.epoch)
        self._attach(primary._manager)
        for i in range(n_replicas):
            self.add_replica(f"replica-{i}")

    def _attach(self, manager) -> None:
        """Ship ``manager``'s appends to the group and point its retention
        floor at the live replica set.

        WAL retention may never prune a record a live replica has not
        applied — done for every manager incarnation (initial, promoted,
        anti-entropy resumed), all of which share the group's replica
        list through this closure.
        """
        manager.on_append.append(self._ship)
        manager.resources.replica_lsns = lambda: [
            r.applied_lsn for r in self.replicas
        ]

    @staticmethod
    def _read_tnow0(state_dir: str) -> int:
        try:
            return int(read_server_config(state_dir).get("tnow0", 0))
        except (RecoveryError, ValueError):
            return 0

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def add_replica(self, name: Optional[str] = None) -> Replica:
        """Attach a new replica and bootstrap it from the durable state.

        A replica joining an aged group catches up through the newest
        checkpoint image plus the WAL tail — it never needs the records
        that pruning already dropped.
        """
        from ..core.system import PDRServer

        name = name or f"replica-{len(self.replicas)}"
        if any(r.name == name for r in self.replicas):
            raise InvalidParameterError(f"replica {name!r} already exists")
        server = PDRServer(
            self.primary.config,
            expected_objects=self.primary.expected_objects,
            tnow=self._tnow0,
            role="replica",
            reliability=ReliabilityConfig(faults=self.faults),
        )
        replica = Replica(name, server, ReplicationLink(name, faults=self.faults))
        replica.epoch = self.epoch
        replica.catch_up(self.state_dir, prefer_image=True)
        self.replicas.append(replica)
        return replica

    def replica(self, name: str) -> Replica:
        for replica in self.replicas:
            if replica.name == name:
                return replica
        raise InvalidParameterError(f"no replica named {name!r}")

    def _breaker(self, name: str) -> CircuitBreaker:
        if name not in self._breakers:
            self._breakers[name] = CircuitBreaker(
                self.clock,
                threshold=BREAKER_THRESHOLD,
                probation_seconds=BREAKER_PROBATION_SECONDS,
                name=name,
            )
        return self._breakers[name]

    # ------------------------------------------------------------------
    # write path (primary only)
    # ------------------------------------------------------------------
    def _ship(self, record: dict) -> None:
        self._acked_lsn = int(record["lsn"])
        shipped = ShippedRecord(self.epoch, dict(record))
        for replica in self.replicas:
            replica.link.send(shipped)

    def report(self, oid, x, y, vx, vy, t=None):
        """Apply one location report through the primary and ship it."""
        out = self.primary.report(oid, x, y, vx, vy, t)
        self.coordinator.note_heartbeat()
        self.pump()
        return out

    def report_batch(self, reports):
        """Apply one wave of reports through the primary and ship it.

        The wave is group-committed on the primary (one fsync) and every
        logged record is shipped in LSN order, so replicas converge to
        the same bit-exact state the sequential path would produce.
        """
        out = self.primary.report_batch(reports)
        self.coordinator.note_heartbeat()
        self.pump()
        return out

    def retire(self, oid) -> bool:
        out = self.primary.retire(oid)
        self.coordinator.note_heartbeat()
        self.pump()
        return out

    def advance_to(self, tnow: int) -> None:
        self.primary.advance_to(tnow)
        self.coordinator.note_heartbeat()
        self.pump()

    def pump(self) -> None:
        """Move queued records across every link and apply them in order."""
        for replica in self.replicas:
            for shipped in replica.link.deliverable():
                replica.offer(shipped)
            replica.drain()
            tm.REPLICATION_LAG.labels(replica.name).set(
                replica.lag(self._acked_lsn)
            )

    def catch_up_replicas(self) -> None:
        """Heal every lagging/stalled replica from the durable WAL."""
        self.pump()
        for replica in self.replicas:
            if replica.stalled or replica.lag(self._acked_lsn) > 0:
                replica.catch_up(self.state_dir)
            if replica.lag(self._acked_lsn) > 0:
                # the log alone could not close the gap — the tail this
                # replica was owed sits behind a pruned horizon whose
                # replacement segment is still empty, so records_from_lsn
                # had nothing to trip over.  Bootstrap from the newest
                # checkpoint image and replay whatever tail remains.
                replica.catch_up(self.state_dir, prefer_image=True)

    # ------------------------------------------------------------------
    # anti-entropy
    # ------------------------------------------------------------------
    def anti_entropy(self):
        """Verify the durable state directory and repair it from a replica.

        The integrity scrubber (:mod:`.integrity`) classifies every
        artifact; if anything is damaged — a bit-flipped WAL record, a
        checkpoint failing its manifest digest, a stray temp file — the
        damage is quarantined and the missing LSN range is re-fetched
        from the most-caught-up replica's retained history (falling back
        to a checkpoint image of its state).  The acting primary's WAL
        handle is closed around the repair and durably re-attached after
        it, so the group keeps serving.  Returns the final
        :class:`~repro.reliability.integrity.IntegrityReport` (clean, or
        :class:`~repro.core.errors.RepairError` is raised).
        """
        from .integrity import repair_state_dir, verify_state_dir
        from .recovery import ReliabilityManager

        self.pump()
        report = verify_state_dir(self.state_dir)
        if report.clean and not report.stray_tmp():
            return report
        source = max(self.replicas, key=lambda r: r.applied_lsn, default=None)
        was_alive = self.primary_alive
        if was_alive:
            self.primary._manager.close()
        try:
            report = repair_state_dir(
                self.state_dir,
                source,
                target_lsn=self._acked_lsn,
                fsync=self.primary.reliability.fsync,
            )
        finally:
            if was_alive:
                manager = ReliabilityManager.resume(
                    self.state_dir, self.primary.reliability, lsn=self._acked_lsn
                )
                self._attach(manager)
                self.primary.attach_manager(manager)
        return report

    # ------------------------------------------------------------------
    # failover
    # ------------------------------------------------------------------
    @property
    def acked_lsn(self) -> int:
        """LSN of the last durably acknowledged write."""
        return self._acked_lsn

    def mark_primary_dead(self) -> None:
        """Record that the primary process is gone (releases its WAL)."""
        if not self.primary_alive:
            return
        self.primary_alive = False
        try:
            self.primary._manager.close()
        except OSError:  # pragma: no cover - closing is best-effort
            pass

    def maybe_failover(self):
        """Fail over iff the primary's lease has expired; else ``None``."""
        if self.primary_alive and not self.coordinator.lease_expired:
            return None
        return self.failover()

    def failover(self):
        """Promote the most-caught-up auditable replica; fence the rest.

        Candidates are tried in descending applied-LSN order.  The winner
        must replay the durable WAL to its very end — acknowledged writes
        are exactly the WAL's contents, so this is what "zero
        acknowledged-write loss" means operationally — and pass the
        structural audit.  Returns the promoted server.
        """
        self.mark_primary_dead()
        for replica in sorted(self.replicas, key=lambda r: -r.applied_lsn):
            replica.drain()
            try:
                replica.catch_up(self.state_dir)
            except (RecoveryError, StorageError):
                continue
            if replica.server.audit(raise_on_violation=False):
                continue
            return self._promote(replica)
        raise FailoverError(
            "no replica could catch up to the durable WAL and pass the audit"
        )

    def _promote(self, replica: Replica):
        from .recovery import ReliabilityManager

        new_epoch = self.epoch + 1
        rc = dataclasses.replace(
            self.primary.reliability, state_dir=self.state_dir, faults=self.faults
        )
        manager = ReliabilityManager.resume(self.state_dir, rc, lsn=replica.applied_lsn)
        self._attach(manager)
        old = self.primary
        self.epoch = new_epoch  # _ship must stamp the new epoch below
        self.replicas.remove(replica)
        self.primary = replica.server
        self.primary_name = replica.name
        self.primary_alive = True
        self.primary.reliability = rc
        self.primary.attach_manager(manager)
        self.primary.promote(new_epoch)  # logs the epoch record -> ships it
        old.demote()
        tm.FAILOVERS.inc()
        tm.REPLICATION_EPOCH.set(new_epoch)
        JOURNAL.emit(
            "failover",
            new_epoch=new_epoch,
            promoted=replica.name,
            applied_lsn=replica.applied_lsn,
        )
        JOURNAL.update_context(epoch=new_epoch)
        self.coordinator.note_heartbeat()
        self.pump()
        return self.primary

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    @property
    def tnow(self) -> int:
        return self.primary.tnow

    @property
    def config(self):
        """The system configuration (the group quacks like a server)."""
        return self.primary.config

    @property
    def table(self):
        """The acting primary's object table (for listener attachment)."""
        return self.primary.table

    def _read_backends(self) -> List:
        """(name, server) candidates: fresh replicas round-robin, then primary."""
        fresh = [
            r for r in self.replicas
            if r.lag(self._acked_lsn) <= self.staleness_bound
        ]
        if fresh:
            self._rr = (self._rr + 1) % len(fresh)
            fresh = fresh[self._rr:] + fresh[:self._rr]
        backends = [(r.name, r.server) for r in fresh]
        if self.primary_alive:
            backends.append((self.primary_name, self.primary))
        return backends

    def _route(self, method: str, query, call):
        """Serve one read: admit, pick a backend, call it, account the outcome.

        ``query`` carries the request's ``l`` (what decides its ladder);
        ``call(server, admitted_method)`` runs it on one backend.  Admission
        (when configured) may degrade the method or shed the request before
        any backend is touched; circuit breakers skip ejected backends;
        replicas outside the staleness bound are never consulted.

        One rule says what a failure means.  An error that says the
        *request* is wrong never counts against a breaker:
        ``InvalidParameterError`` (an unknown method is raised by
        ``ladder_for`` before a token is charged) surfaces at once, and
        ``HorizonError`` after the remaining backends were tried, since a
        replica one ``advance`` behind has a different window.  Every other
        error is the backend's fault: it counts, and the next backend is
        tried.  The last error is re-raised when nobody answered.
        """
        rungs = ladder_for(method, query, self.primary.pa.l)
        with TELEMETRY.tracer.span("admission"):
            admitted, admission_degraded = (
                self.admission.admit(method, rungs)
                if self.admission is not None
                else (method, False)
            )
        backends = self._read_backends()
        if not backends:
            raise StalenessExceededError(
                f"no backend within staleness bound "
                f"{self.staleness_bound} "
                f"(acked lsn {self._acked_lsn}) and the primary is unavailable"
            )
        slot = self.admission.slot if self.admission is not None else nullcontext
        last_exc: Optional[ReproError] = None
        for name, server in backends:
            breaker = self._breaker(name)
            if not breaker.allow():
                continue
            try:
                with slot():
                    result = call(server, admitted)
            except (InjectedCrashError, InvalidParameterError):
                raise
            except HorizonError as exc:
                last_exc = exc
                continue
            except ReproError as exc:
                breaker.record_failure()
                last_exc = exc
                continue
            breaker.record_success()
            result.served_by = name
            if admission_degraded:
                result.degraded = True
                result.requested_method = method
            return result
        if last_exc is not None:
            raise last_exc
        raise QueryError(
            "every eligible backend is circuit-broken; retry after probation"
        )

    def query(
        self,
        method: str,
        qt: int,
        l: Optional[float] = None,
        rho: Optional[float] = None,
        varrho: Optional[float] = None,
        deadline: Optional[float] = None,
    ):
        """Evaluate a snapshot query on the best available backend
        (:meth:`_route`).  The result's ``served_by`` names the backend."""
        with TELEMETRY.tracer.trace("group_query", method=method, qt=qt) as span:
            result = self._route(
                method,
                self.primary.make_query(qt=qt, l=l, rho=rho, varrho=varrho),
                lambda server, admitted: server.query(
                    admitted, qt=qt, l=l, rho=rho, varrho=varrho,
                    deadline=deadline,
                ),
            )
            span.set(served_by=result.served_by, served_method=result.stats.method)
        TELEMETRY.note_query(span, result, requested_method=method)
        return result

    def query_interval(
        self,
        method: str,
        qt1: int,
        qt2: int,
        l: Optional[float] = None,
        rho: Optional[float] = None,
        varrho: Optional[float] = None,
    ):
        """Route an interval query like a snapshot one (admission included)."""
        return self._route(
            method,
            self.primary.make_query(qt=qt1, l=l, rho=rho, varrho=varrho),
            lambda server, admitted: server.query_interval(
                admitted, qt1=qt1, qt2=qt2, l=l, rho=rho, varrho=varrho
            ),
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def status(self) -> dict:
        """The replication topology as one operator-facing dict."""
        return {
            "epoch": self.epoch,
            "primary": {
                "name": self.primary_name,
                "alive": self.primary_alive,
                "role": self.primary.role,
                "acked_lsn": self._acked_lsn,
                "tnow": self.primary.tnow,
                "read_only": self.primary.read_only,
            },
            "staleness_bound": self.staleness_bound,
            "replicas": [
                {
                    "name": r.name,
                    "applied_lsn": r.applied_lsn,
                    "lag": r.lag(self._acked_lsn),
                    "epoch": r.epoch,
                    "partitioned": r.link.partitioned,
                    "queued": r.link.queued,
                    "dropped": r.link.dropped,
                    "fenced_rejects": r.fenced_rejects,
                    "breaker": self._breakers[r.name].state if r.name in self._breakers else "closed",
                }
                for r in self.replicas
            ],
        }

    def reliability_report(self) -> dict:
        """Primary counters + admission counters + replication status."""
        report = self.primary.reliability_report()
        report["replication"] = self.status()
        report["admission"] = self.admission.report() if self.admission else None
        return report

    def probe_resources(self) -> bool:
        """Try to lift the acting primary out of read-only degraded mode."""
        return self.primary.probe_resources()

    def close(self) -> None:
        if self.primary_alive:
            self.primary.close()
