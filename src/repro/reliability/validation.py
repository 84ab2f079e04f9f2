"""Ingestion hardening: report validation and the dead-letter queue.

Every location report crosses :meth:`~repro.core.system.PDRServer.report`
exactly once, so that boundary is where malformed input must die.  A
report that fails validation is *recorded*, not raised: it lands in a
bounded :class:`DeadLetterQueue` with a reason counter, and none of the
maintained structures (object table, TPR-tree, histograms, Chebyshev
surfaces) see it — they either all apply an update or none of them do.

Reject reasons
--------------
``nonfinite``      a coordinate or velocity is NaN or infinite
``out_of_bounds``  the reported position lies outside the domain
``bad_oid``        the object id is negative, not integral, or above 2**63 - 1
``stale``          the report carries an explicit timestamp < ``t_now``
``future``         the report carries an explicit timestamp > ``t_now``
``unknown_oid``    a retire names an object the server does not know

A re-report of an object within one tick is accepted: the update
protocol (Section 5.1) treats it as delete + insert.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from ..core.geometry import Rect
from .faults import FaultInjector

__all__ = [
    "REJECT_REASONS",
    "RejectedReport",
    "DeadLetterQueue",
    "ReportValidator",
    "ResourceConfig",
    "ReliabilityConfig",
]

# Object ids are stored (table, checkpoints) as exact int64; a larger id
# must die here, before its WAL record would poison every later recovery.
_MAX_OID = 2**63 - 1
# Rejects the dead-letter queue keeps (its counters keep counting past it).
DEAD_LETTER_CAPACITY = 1024

REJECT_REASONS = (
    "nonfinite",
    "out_of_bounds",
    "bad_oid",
    "stale",
    "future",
    "unknown_oid",
)


@dataclass(frozen=True)
class RejectedReport:
    """One report that failed boundary validation, with its verdict."""

    oid: object
    x: float
    y: float
    vx: float
    vy: float
    t: Optional[int]
    tnow: int
    reason: str
    detail: str


class DeadLetterQueue:
    """A bounded FIFO of rejects plus unbounded per-reason counters.

    The queue keeps only the most recent :data:`DEAD_LETTER_CAPACITY`
    rejects (old entries are dropped), but ``counts`` and ``total`` keep
    counting forever so operators can alarm on reject *rates* even after
    the queue wrapped.
    """

    def __init__(self) -> None:
        self._entries: "deque[RejectedReport]" = deque(maxlen=DEAD_LETTER_CAPACITY)
        self.counts: Counter = Counter()
        self.total = 0

    def push(self, reject: RejectedReport) -> None:
        self._entries.append(reject)
        self.counts[reject.reason] += 1
        self.total += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[RejectedReport]:
        return iter(self._entries)

    @property
    def latest(self) -> Optional[RejectedReport]:
        return self._entries[-1] if self._entries else None


class ReportValidator:
    """The checks every report passes at the ``report()`` boundary."""

    def __init__(self, domain: Rect) -> None:
        self.domain = domain

    def validate(
        self,
        oid: object,
        x: float,
        y: float,
        vx: float,
        vy: float,
        t: Optional[int],
        tnow: int,
    ) -> Optional[Tuple[str, str]]:
        """Return ``(reason, detail)`` for a reject, or ``None`` to accept."""
        if not isinstance(oid, int) or isinstance(oid, bool) or not 0 <= oid <= _MAX_OID:
            return (
                "bad_oid",
                f"object id must be an integer in [0, 2**63 - 1], got {oid!r}",
            )
        if not all(math.isfinite(v) for v in (x, y, vx, vy)):
            return ("nonfinite", f"non-finite report ({x}, {y}, {vx}, {vy})")
        if t is not None:
            if t < tnow:
                return ("stale", f"report timestamped {t} behind server clock {tnow}")
            if t > tnow:
                return ("future", f"report timestamped {t} ahead of server clock {tnow}")
        if not self.domain.contains_point(x, y):
            return (
                "out_of_bounds",
                f"position ({x}, {y}) outside domain {self.domain.as_tuple()}",
            )
        return None


@dataclass
class ResourceConfig:
    """The disk budget of a state directory.

    ``soft_limit_bytes``: state-dir size at which the server checkpoints
    and prunes retention-covered WAL segments.  ``hard_limit_bytes``:
    size at which it flips to read-only degraded mode (queries keep
    serving, writes are refused with ``retry_after``).  Either may be
    ``None`` to disable that watermark.

    The object is deliberately mutable and *shared* (never copied by
    ``dataclasses.replace`` of the enclosing ``ReliabilityConfig``), so
    an operator — or the resource chaos scheduler — resizing the budget
    is seen by every incarnation of the manager, across failovers.
    """

    soft_limit_bytes: Optional[int] = None
    hard_limit_bytes: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "soft_limit_bytes": self.soft_limit_bytes,
            "hard_limit_bytes": self.hard_limit_bytes,
        }

    @classmethod
    def from_dict(cls, payload: Optional[dict]) -> Optional["ResourceConfig"]:
        """Inverse of :meth:`to_dict`; keys it does not know are ignored."""
        if not payload:
            return None
        limits = {
            name: None if payload.get(name) is None else int(payload[name])
            for name in ("soft_limit_bytes", "hard_limit_bytes")
        }
        return cls(**limits)


@dataclass
class ReliabilityConfig:
    """The reliability layer's settings.

    ``state_dir`` enables durability: an append-only update log (WAL) plus
    a full checkpoint every ``checkpoint_interval`` ticks, from which
    :meth:`PDRServer.recover` reconstructs the server after a crash;
    ``fsync`` makes every WAL append durable before it is acked.
    ``faults`` attaches a :class:`FaultInjector`, whose (virtual) clock
    then also drives query deadlines and retry backoff.  ``resources``
    attaches a disk budget (see :class:`ResourceConfig` and
    :mod:`repro.reliability.resources`).  Retry counts, the dead-letter
    capacity and checkpoint retention are constants:
    :data:`repro.reliability.deadline.RETRIES` /
    :data:`~repro.reliability.deadline.BACKOFF_SECONDS`,
    :data:`DEAD_LETTER_CAPACITY` and
    :data:`repro.reliability.recovery.KEEP_CHECKPOINTS`.
    """

    state_dir: Optional[str] = None
    checkpoint_interval: int = 0  # ticks between checkpoints; 0 = WAL only
    fsync: bool = True
    faults: Optional[FaultInjector] = None
    resources: Optional[ResourceConfig] = None
