"""LRU buffer pool simulator.

The pool tracks which page ids are resident and charges
:data:`~repro.storage.pages.RANDOM_IO_SECONDS` for every miss.  It does not hold page *contents* —
the TPR-tree keeps its nodes in Python objects — it exists purely so that
query evaluation pays a faithful I/O bill (Section 7.3: each random I/O is
charged 10 ms, buffer = 10 % of the dataset).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..core.errors import InvalidParameterError
from .pages import RANDOM_IO_SECONDS

__all__ = ["BufferPool", "IOStats"]


@dataclass
class IOStats:
    """Cumulative buffer-pool counters."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class BufferPool:
    """A capacity-bounded LRU set of resident page ids."""

    def __init__(self, capacity_pages: int, faults=None) -> None:
        if capacity_pages < 1:
            raise InvalidParameterError(f"buffer capacity must be >= 1, got {capacity_pages}")
        self._capacity = capacity_pages
        self._resident: "OrderedDict[int, None]" = OrderedDict()
        self._faults = faults
        self.stats = IOStats()
        # Serving runs read-only queries on a thread pool; the LRU list and
        # the counters are the one piece of index state every traversal
        # mutates, so they get their own lock (check-then-move on the
        # OrderedDict is not atomic).
        self._lock = threading.RLock()

    @property
    def capacity(self) -> int:
        return self._capacity

    def resize(self, capacity_pages: int) -> None:
        """Change capacity, evicting LRU pages if shrinking."""
        if capacity_pages < 1:
            raise InvalidParameterError(f"buffer capacity must be >= 1, got {capacity_pages}")
        with self._lock:
            self._capacity = capacity_pages
            while len(self._resident) > self._capacity:
                self._resident.popitem(last=False)

    def access(self, page_id: int) -> bool:
        """Touch ``page_id``; returns True on a hit, False on a miss.

        A miss goes to the (simulated) device and is therefore a fault
        site: an injected error raises *before* the page is counted or
        made resident, exactly like a failed read.
        """
        with self._lock:
            if page_id in self._resident:
                self._resident.move_to_end(page_id)
                self.stats.hits += 1
                return True
            if self._faults is not None:
                self._faults.hit("buffer.io")
            self.stats.misses += 1
            self._resident[page_id] = None
            if len(self._resident) > self._capacity:
                self._resident.popitem(last=False)
            return False

    def invalidate(self, page_id: int) -> None:
        """Drop a page (e.g. after a node is freed by the index)."""
        with self._lock:
            self._resident.pop(page_id, None)

    def contains(self, page_id: int) -> bool:
        with self._lock:
            return page_id in self._resident

    def clear(self) -> None:
        with self._lock:
            self._resident.clear()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def reset_stats(self) -> IOStats:
        """Zero the counters, returning the previous values."""
        with self._lock:
            old, self.stats = self.stats, IOStats()
            return old

    def charged_seconds(self, stats: IOStats = None) -> float:
        """I/O time charged for ``stats`` (default: the live counters)."""
        s = self.stats if stats is None else stats
        return s.misses * RANDOM_IO_SECONDS

    def __len__(self) -> int:
        return len(self._resident)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BufferPool(capacity={self._capacity}, resident={len(self._resident)}, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )
