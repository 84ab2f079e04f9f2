"""Fault-tolerant serving: the reliability layer of the PDR server.

This package makes :class:`~repro.core.system.PDRServer` survive hostile
inputs and partial failures.  Six pillars:

* **Ingestion hardening** (:mod:`.validation`): every report is validated
  at the ``report()`` boundary and rejects are routed to a bounded
  dead-letter queue with per-reason counters instead of raising
  mid-mutation, so the maintained structures can never diverge from each
  other on bad input.
* **Query deadlines** (:mod:`.deadline`): a per-query time budget under
  which evaluation degrades ``fr -> pa -> dh-optimistic`` bounds, with
  retry-with-backoff for transient faults.
* **Checkpoint/replay recovery** (:mod:`.recovery`): periodic full
  checkpoints plus an append-only update log; ``PDRServer.recover()``
  restores state as checkpoint + log replay and audits the structural
  invariants afterwards.
* **Deterministic fault injection** (:mod:`.faults`): named fault sites
  at which tests inject I/O errors, delays and crash points.
* **Replication + failover** (:mod:`.replication`): a
  :class:`ReplicationGroup` ships the primary's WAL to N replicas,
  serves staleness-bounded reads from them, and promotes the
  most-caught-up replica (audited, epoch-fenced) when the primary's
  lease lapses.
* **Admission control** (:mod:`.admission`): a front-door token bucket
  with per-method cost classes, a concurrency cap and per-backend
  circuit breakers; overload degrades ``fr -> pa -> dh-optimistic`` and
  then sheds with ``retry_after`` instead of collapsing.
* **State integrity** (:mod:`.integrity`, over the one owner of the
  state directory's format, :mod:`.statedir`): every WAL record is
  checksum-framed and every checkpoint artifact digest-pinned by the
  manifest; :func:`verify_state_dir` scrubs a state directory
  (clean / torn-tail / corrupt), :func:`scrub_state_dir` quarantines the
  damage, and :func:`repair_state_dir` heals it from a caught-up replica
  (anti-entropy).  The seeded chaos simulator that exercises all of this
  end to end lives in :mod:`.chaos`.

:mod:`.recovery` is deliberately *not* imported here: it depends on
:mod:`repro.storage.snapshot`, which imports :mod:`repro.core.system` —
import it lazily (as ``PDRServer.recover`` does) to avoid the cycle.
:mod:`.chaos` is kept out for the same reason (it drives a full
``PDRServer`` stack); import it directly.
"""

from .admission import (
    AdmissionConfig,
    AdmissionController,
    CircuitBreaker,
    TokenBucket,
)
from .deadline import Deadline, evaluate_with_degradation, run_with_retries
from .faults import FaultInjector, InjectedCrashError, MonotonicClock, VirtualClock
from .integrity import (
    FileStatus,
    IntegrityReport,
    flip_byte,
    repair_state_dir,
    scrub_state_dir,
    verify_state_dir,
)
from .replication import (
    FailoverCoordinator,
    Replica,
    ReplicationConfig,
    ReplicationGroup,
    ReplicationLink,
    ShippedRecord,
)
from .validation import (
    REJECT_REASONS,
    DeadLetterQueue,
    RejectedReport,
    ReliabilityConfig,
    ReportPolicy,
    ReportValidator,
    ResourceConfig,
)
from .statedir import frame_record, parse_wal_line

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "CircuitBreaker",
    "Deadline",
    "DeadLetterQueue",
    "evaluate_with_degradation",
    "FailoverCoordinator",
    "FaultInjector",
    "FileStatus",
    "flip_byte",
    "frame_record",
    "InjectedCrashError",
    "IntegrityReport",
    "MonotonicClock",
    "parse_wal_line",
    "repair_state_dir",
    "scrub_state_dir",
    "verify_state_dir",
    "REJECT_REASONS",
    "RejectedReport",
    "ReliabilityConfig",
    "Replica",
    "ReplicationConfig",
    "ReplicationGroup",
    "ReplicationLink",
    "ReportPolicy",
    "ReportValidator",
    "ResourceConfig",
    "ShippedRecord",
    "TokenBucket",
    "run_with_retries",
    "VirtualClock",
]
