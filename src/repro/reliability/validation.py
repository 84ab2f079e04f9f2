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
``over_speed``     the reported speed exceeds ``policy.max_speed``
``bad_oid``        the object id is negative, not integral, or above 2**63 - 1
``stale``          the report carries an explicit timestamp < ``t_now``
``future``         the report carries an explicit timestamp > ``t_now``
``duplicate``      the object already reported this tick (strict mode)
``unknown_oid``    a retire names an object the server does not know
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Iterator, Optional, Set, Tuple

from ..core.errors import InvalidParameterError
from ..core.geometry import Rect
from .faults import FaultInjector

__all__ = [
    "REJECT_REASONS",
    "RejectedReport",
    "DeadLetterQueue",
    "ReportPolicy",
    "ReportValidator",
    "ResourceConfig",
    "ReliabilityConfig",
]

# Object ids are stored (table, checkpoints) as exact int64; a larger id
# must die here, before its WAL record would poison every later recovery.
_MAX_OID = 2**63 - 1

REJECT_REASONS = (
    "nonfinite",
    "out_of_bounds",
    "over_speed",
    "bad_oid",
    "stale",
    "future",
    "duplicate",
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

    The queue keeps only the most recent ``capacity`` rejects (old entries
    are dropped), but ``counts`` and ``total`` keep counting forever so
    operators can alarm on reject *rates* even after the queue wrapped.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise InvalidParameterError(f"dead-letter capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "deque[RejectedReport]" = deque(maxlen=capacity)
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


@dataclass(frozen=True)
class ReportPolicy:
    """What the ingestion boundary rejects.

    ``max_speed`` is in domain units per timestamp; ``None`` disables the
    check.  ``reject_duplicates`` rejects a second report for the same
    object id within one tick — off by default because the update
    protocol (Section 5.1) legitimately treats a re-report as
    delete + insert, and the paper's workloads re-report freely.
    """

    reject_nonfinite: bool = True
    reject_out_of_bounds: bool = True
    max_speed: Optional[float] = None
    reject_duplicates: bool = False


class ReportValidator:
    """Applies a :class:`ReportPolicy` at the ``report()`` boundary."""

    def __init__(self, policy: ReportPolicy, domain: Rect) -> None:
        self.policy = policy
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
        seen_this_tick: Set[int],
    ) -> Optional[Tuple[str, str]]:
        """Return ``(reason, detail)`` for a reject, or ``None`` to accept."""
        policy = self.policy
        if not isinstance(oid, int) or isinstance(oid, bool) or not 0 <= oid <= _MAX_OID:
            return (
                "bad_oid",
                f"object id must be an integer in [0, 2**63 - 1], got {oid!r}",
            )
        if policy.reject_nonfinite and not all(
            math.isfinite(v) for v in (x, y, vx, vy)
        ):
            return ("nonfinite", f"non-finite report ({x}, {y}, {vx}, {vy})")
        if t is not None:
            if t < tnow:
                return ("stale", f"report timestamped {t} behind server clock {tnow}")
            if t > tnow:
                return ("future", f"report timestamped {t} ahead of server clock {tnow}")
        if policy.reject_out_of_bounds and not self.domain.contains_point(x, y):
            return (
                "out_of_bounds",
                f"position ({x}, {y}) outside domain {self.domain.as_tuple()}",
            )
        if policy.max_speed is not None:
            speed = math.hypot(vx, vy)
            if speed > policy.max_speed:
                return (
                    "over_speed",
                    f"speed {speed:.3f} exceeds max_speed {policy.max_speed}",
                )
        if policy.reject_duplicates and oid in seen_this_tick:
            return ("duplicate", f"object {oid} already reported at tick {tnow}")
        return None


@dataclass
class ResourceConfig:
    """Resource-exhaustion knobs (disk budget, memory watermark).

    ``soft_limit_bytes``: state-dir size at which the server checkpoints
    and prunes retention-covered WAL segments.  ``hard_limit_bytes``:
    size at which it flips to read-only degraded mode (queries keep
    serving, writes are refused with ``retry_after``).  Either may be
    ``None`` to disable that watermark.  ``memory_limit_bytes`` bounds
    the reclaimable query-path memory (prefix/block-sum caches plus
    slow-query exemplars); crossing it sheds those caches.
    ``readonly_retry_after`` is the hint carried on refused writes.

    The object is deliberately mutable and *shared* (never copied by
    ``dataclasses.replace`` of the enclosing ``ReliabilityConfig``), so
    an operator — or the resource chaos scheduler — resizing the budget
    is seen by every incarnation of the manager, across failovers.
    """

    soft_limit_bytes: Optional[int] = None
    hard_limit_bytes: Optional[int] = None
    memory_limit_bytes: Optional[int] = None
    readonly_retry_after: float = 0.5

    def to_dict(self) -> dict:
        return {
            "soft_limit_bytes": self.soft_limit_bytes,
            "hard_limit_bytes": self.hard_limit_bytes,
            "memory_limit_bytes": self.memory_limit_bytes,
            "readonly_retry_after": self.readonly_retry_after,
        }

    @classmethod
    def from_dict(cls, payload: Optional[dict]) -> Optional["ResourceConfig"]:
        if not payload:
            return None
        return cls(
            soft_limit_bytes=(
                None if payload.get("soft_limit_bytes") is None
                else int(payload["soft_limit_bytes"])
            ),
            hard_limit_bytes=(
                None if payload.get("hard_limit_bytes") is None
                else int(payload["hard_limit_bytes"])
            ),
            memory_limit_bytes=(
                None if payload.get("memory_limit_bytes") is None
                else int(payload["memory_limit_bytes"])
            ),
            readonly_retry_after=float(payload.get("readonly_retry_after", 0.5)),
        )


@dataclass
class ReliabilityConfig:
    """Everything the server's reliability layer can be tuned with.

    ``state_dir`` enables durability: an append-only update log (WAL) plus
    a full checkpoint every ``checkpoint_interval`` ticks, from which
    :meth:`PDRServer.recover` reconstructs the server after a crash.
    ``faults`` attaches a :class:`FaultInjector`, whose (virtual) clock
    then also drives query deadlines and retry backoff.  ``resources``
    attaches disk/memory budgets (see :class:`ResourceConfig` and
    :mod:`repro.reliability.resources`).
    """

    policy: ReportPolicy = field(default_factory=ReportPolicy)
    dead_letter_capacity: int = 1024
    retries: int = 2
    backoff_seconds: float = 0.05
    state_dir: Optional[str] = None
    checkpoint_interval: int = 0  # ticks between checkpoints; 0 = WAL only
    keep_checkpoints: int = 2
    fsync: bool = True
    faults: Optional[FaultInjector] = None
    resources: Optional[ResourceConfig] = None
