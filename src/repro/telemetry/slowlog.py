"""The slow-query log: a bounded buffer of the N worst query traces.

Every finished root query trace is *offered* to the log with the query's
resolved parameters; the log keeps the :data:`CAPACITY` slowest ones.  Each
retained entry is a **replayable exemplar**: it records the method that
actually produced the answer (after any degradation) plus the resolved
absolute threshold, so ``server.query(**entry.replay_kwargs())`` against
the same state reproduces the identical answer — the operator's "what
exactly was slow, show me again" tool.

Implementation: a min-heap keyed by duration so an offer against a full
log is one comparison in the common (fast-query) case.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["CAPACITY", "SlowQueryEntry", "SlowQueryLog"]

CAPACITY = 32  # worst queries retained


@dataclass
class SlowQueryEntry:
    """One retained worst-case query."""

    duration_seconds: float
    method: str                 # the method that actually ran
    requested_method: str       # what the caller asked for
    qt: int
    l: float
    rho: float                  # resolved absolute threshold
    degraded: bool = False
    served_by: Optional[str] = None
    trace: Optional[dict] = None  # serialized span tree
    trace_id: Optional[str] = None  # joins the ops journal and repro trace
    journal_seq: Optional[int] = None  # seq of the slow_query journal record
    attrs: dict = field(default_factory=dict)

    def replay_kwargs(self) -> dict:
        """Keyword arguments reproducing this answer on the same state."""
        return {"method": self.method, "qt": self.qt, "l": self.l, "rho": self.rho}

    def to_dict(self) -> dict:
        return {
            "duration_seconds": self.duration_seconds,
            "method": self.method,
            "requested_method": self.requested_method,
            "qt": self.qt,
            "l": self.l,
            "rho": self.rho,
            "degraded": self.degraded,
            "served_by": self.served_by,
            "trace_id": self.trace_id,
            "journal_seq": self.journal_seq,
            "attrs": dict(self.attrs),
            "trace": self.trace,
        }


class SlowQueryLog:
    """Keeps the :data:`CAPACITY` slowest entries ever offered."""

    def __init__(self) -> None:
        self.offered = 0
        self._seq = itertools.count()
        self._heap: List[tuple] = []  # (duration, seq, entry) min-heap

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def threshold_seconds(self) -> float:
        """Durations at or below this cannot enter a full log."""
        if len(self._heap) < CAPACITY:
            return 0.0
        return self._heap[0][0]

    def would_retain(self, duration_seconds: float) -> bool:
        """Whether an offer with this duration would be kept (no mutation)."""
        if len(self._heap) < CAPACITY:
            return True
        return duration_seconds > self._heap[0][0]

    def note_skipped(self) -> None:
        """Count an offer the caller short-circuited via :meth:`would_retain`."""
        self.offered += 1

    def offer(self, entry: SlowQueryEntry) -> bool:
        """Consider one finished query; returns True if it was retained."""
        self.offered += 1
        item = (entry.duration_seconds, next(self._seq), entry)
        if len(self._heap) < CAPACITY:
            heapq.heappush(self._heap, item)
            return True
        if entry.duration_seconds <= self._heap[0][0]:
            return False
        heapq.heapreplace(self._heap, item)
        return True

    def entries(self) -> List[SlowQueryEntry]:
        """Retained entries, slowest first."""
        return [
            item[2]
            for item in sorted(self._heap, key=lambda it: (-it[0], it[1]))
        ]

    def clear(self) -> None:
        self._heap.clear()
        self.offered = 0

    def to_dict(self) -> dict:
        return {
            "capacity": CAPACITY,
            "offered": self.offered,
            "entries": [entry.to_dict() for entry in self.entries()],
        }
