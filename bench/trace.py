"""The harness's own span recorder.

Spans are recorded from outside the program: timing proxies wrapped around
the public entry points of objects the harness built, plus child spans
synthesised from stage times the program already returns.  Spans stay in
memory and are written out once, when the run ends.  Single-threaded by
design — the load generator's traced loops run on one thread.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Dict, List, Optional

from bench.stats import median, tail

__all__ = ["SpanRecorder"]


class SpanRecorder:
    """Records ``(name, start, end, parent, request)`` spans.

    ``parent`` is the index of the span that caused this one (None for a
    root); spans of one request — one wave, one query — share the root's
    index as their ``request`` id.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[Optional[int]] = []
        self.requests: List[int] = []
        self._stack: List[int] = []
        self._undo = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.names)
        parent = self._stack[-1] if self._stack else None
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(parent)
        self.requests.append(index if parent is None else self.requests[parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def add_child(self, parent: int, name: str, start: float, seconds: float) -> None:
        """A child span whose duration the program itself reported."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(start + seconds)
        self.parents.append(parent)
        self.requests.append(self.requests[parent])

    def wrap(self, obj, attr: str, name: str) -> None:
        """Put a timing proxy around ``obj.attr`` until :meth:`unwrap_all`."""
        inner = getattr(obj, attr)

        @functools.wraps(inner)
        def proxy(*args, **kwargs):
            index = self.open(name)
            try:
                return inner(*args, **kwargs)
            finally:
                self.close(index)

        setattr(obj, attr, proxy)
        self._undo.append((obj, attr))

    def unwrap_all(self) -> None:
        # the proxies were instance attributes shadowing the class's methods
        for obj, attr in self._undo:
            delattr(obj, attr)
        self._undo.clear()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def _children_seconds(self) -> Dict[int, float]:
        covered: Dict[int, float] = defaultdict(float)
        for i, parent in enumerate(self.parents):
            if parent is not None:
                covered[parent] += self.ends[i] - self.starts[i]
        return covered

    def durations(self, name: str) -> List[float]:
        return [
            self.ends[i] - self.starts[i] for i, n in enumerate(self.names) if n == name
        ]

    def self_times(self, name: str) -> List[float]:
        """Span duration minus the part its child spans cover."""
        covered = self._children_seconds()
        return [
            self.ends[i] - self.starts[i] - covered.get(i, 0.0)
            for i, n in enumerate(self.names)
            if n == name
        ]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def table(self) -> List[dict]:
        """Per span name: count, p50, tail, self p50 and share of parent."""
        covered = self._children_seconds()
        by_name: Dict[str, List[int]] = defaultdict(list)
        for i, name in enumerate(self.names):
            by_name[name].append(i)
        rows = []
        for name, indexes in by_name.items():
            durations = [self.ends[i] - self.starts[i] for i in indexes]
            selfs = [d - covered.get(i, 0.0) for i, d in zip(indexes, durations)]
            parents = [self.parents[i] for i in indexes if self.parents[i] is not None]
            parent_total = sum(self.ends[p] - self.starts[p] for p in set(parents))
            rows.append({
                "span": name,
                "parent": self.names[parents[0]] if parents else None,
                "count": len(indexes),
                "p50_ms": 1000.0 * median(durations),
                "tail_ms": 1000.0 * tail(durations),
                "self_p50_ms": 1000.0 * median(selfs),
                "share_of_parent": (
                    sum(durations) / parent_total if parent_total > 0 else 1.0
                ),
            })
        return rows

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "name": name, "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i], "request": self.requests[i],
                }))
                fh.write("\n")
