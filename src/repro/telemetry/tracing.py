"""Structured per-query tracing: span trees with propagated trace IDs.

A query entering the system opens a *trace* — a tree of :class:`Span`
nodes, one per meaningful unit of work::

    query(method=fr, qt=42)            <- root, opened by the serving tier
      admission                        <- token-bucket decision
      rung(method=fr)                  <- one ladder rung (reliability.deadline)
        filter                         <- histogram classification
        fuse / fetch / sweep / merge   <- the refinement stages, once each

Span and trace IDs are deterministic process-local counters (hex), so a
seeded run produces the same tree shape run over run.  The tracer keeps a
thread-local span stack; :meth:`Tracer.trace` nests automatically — when
a trace is already open it produces a child span, which is how the
replication group's trace flows through ``PDRServer.query`` and down the
degradation ladder without any explicit plumbing.

Two recording styles:

* ``with tracer.trace("rung", method="fr") as span:`` — measures the
  enclosed block with :func:`time.perf_counter` and pushes the span so
  nested work attaches to it.
* ``tracer.record_span("fetch", seconds)`` — folds an already-measured
  leaf into the enclosing span's per-stage accumulator: one dict slot per
  stage name holding a count, the summed seconds and sums of any numeric
  attributes.  A method times each stage once, keeps the float in
  ``stats.extra["<stage>_seconds"]`` — the one record every counter and
  report reads — and hands the same float here; the leaf is how a trace
  *renders* that record, not a second source of it.

When tracing is disabled — or no trace is open — both styles degrade to a
shared no-op span; the cost is one branch and one ``perf_counter`` pair.

Traces also cross process boundaries: a wire request frame may carry a
``trace`` envelope (see ``serving/protocol.py``), and the serving tier
adopts it with ``with tracer.adopt(trace_id, parent_id):`` before
dispatching — the next root-level ``trace()`` on that thread joins the
remote trace instead of opening a fresh one, and is marked as a
*boundary* whose direct children are *local roots* (the unit the
slow-query log accounts).  :func:`new_trace_id` mints pid-prefixed ids
for envelopes so two processes' counters cannot collide in the journal.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Dict, List, Optional

__all__ = [
    "Span",
    "NOOP_SPAN",
    "Tracer",
    "new_trace_id",
    "new_span_id",
    "render_span_tree",
]

_ids = itertools.count(1)


def _next_id() -> str:
    return format(next(_ids), "012x")


def new_span_id() -> str:
    """A fresh span id from the process-local counter.

    For callers (the wire client) that build span dicts by hand rather
    than through :class:`Span`.
    """
    return _next_id()


def new_trace_id() -> str:
    """A trace id safe to propagate across processes.

    In-process trace ids are bare counters — deterministic, but two
    processes both start counting at 1, so an id that crosses a socket
    is prefixed with the originating pid to keep journal joins unique.
    """
    return f"{os.getpid():08x}{next(_ids):08x}"


class Span:
    """One timed node of a trace tree."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id",
        "started", "duration", "attrs", "children", "stages",
        "local_root", "boundary",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        parent_id: Optional[str] = None,
        attrs: Optional[dict] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = _next_id()
        self.parent_id = parent_id
        self.started = 0.0
        self.duration = 0.0
        self.attrs: dict = attrs or {}
        self.children: List["Span"] = []
        # Aggregated leaves from record_span(): name -> {"count", "seconds",
        # <summed numeric attrs>}.
        self.stages: Dict[str, dict] = {}
        # ``local_root``: the top of this *process's* contribution to a
        # trace — a true root, or the first span under a cross-process
        # boundary.  The slow-query log offers local roots, so a query
        # arriving over the wire (nested under an adopted "dispatch"
        # span) still produces exactly one exemplar.
        self.local_root = False
        # ``boundary``: this span marks a cross-process adoption point;
        # its direct children are local roots.
        self.boundary = False

    @property
    def is_root(self) -> bool:
        return self.parent_id is None

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)

    def child(self, name: str, attrs: Optional[dict] = None) -> "Span":
        span = Span(name, self.trace_id, parent_id=self.span_id, attrs=attrs)
        self.children.append(span)
        return span

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "duration_seconds": self.duration,
            "attrs": dict(self.attrs),
            "stages": {name: dict(acc) for name, acc in self.stages.items()},
            "children": [child.to_dict() for child in self.children],
        }


class _NoopSpan:
    """Shared do-nothing span for disabled tracing / no open trace."""

    __slots__ = ()
    name = "noop"
    trace_id = ""
    span_id = ""
    parent_id = None
    duration = 0.0
    children: List[Span] = []
    attrs: dict = {}
    stages: Dict[str, dict] = {}
    local_root = False
    boundary = False

    @property
    def is_root(self) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass

    def walk(self):
        return iter(())

    def to_dict(self) -> dict:
        return {}


NOOP_SPAN = _NoopSpan()


class _SpanContext:
    """Context manager that times a span and maintains the tracer stack."""

    __slots__ = ("_tracer", "_span", "_t0")

    def __init__(self, tracer: "Tracer", span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self):
        self._t0 = time.perf_counter()
        if self._span is not NOOP_SPAN:
            self._span.started = self._t0
            self._tracer._stack().append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        dt = time.perf_counter() - self._t0
        if self._span is not NOOP_SPAN:
            self._span.duration = dt
            if exc_type is not None:
                self._span.attrs.setdefault("error", exc_type.__name__)
            stack = self._tracer._stack()
            if stack and stack[-1] is self._span:
                stack.pop()


class _Adoption:
    """Context manager installing a remote trace context on this thread.

    While active, the *next* root-level :meth:`Tracer.trace` on this
    thread joins the remote trace instead of starting a fresh one: the
    span is created with the remote ``trace_id``, parented to the remote
    ``parent_id``, and marked as a cross-process ``boundary`` so its
    direct children count as local roots for slow-query accounting.
    Nesting restores the previous remote context on exit, and the worker
    thread is always left clean for the next request.
    """

    __slots__ = ("_tracer", "_remote", "_prev")

    def __init__(self, tracer: "Tracer", trace_id: str, parent_id: Optional[str]) -> None:
        self._tracer = tracer
        self._remote = (trace_id, parent_id)

    def __enter__(self) -> "_Adoption":
        local = self._tracer._local
        self._prev = getattr(local, "remote", None)
        local.remote = self._remote
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._local.remote = self._prev


class Tracer:
    """Thread-local span stack plus the enable switch."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def adopt(self, trace_id: str, parent_id: Optional[str] = None) -> _Adoption:
        """Adopt a remote trace context (from a wire envelope) on this thread."""
        return _Adoption(self, trace_id, parent_id)

    def trace(self, name: str, **attrs) -> _SpanContext:
        """Open a span: a root when no trace is active, a child otherwise.

        With a remote context adopted (:meth:`adopt`), a root-level call
        joins the remote trace: same ``trace_id``, parented to the remote
        span, marked as a boundary so children are local roots.
        """
        if not self.enabled:
            return _SpanContext(self, NOOP_SPAN)
        parent = self.current()
        if parent is None:
            remote = getattr(self._local, "remote", None)
            if remote is not None:
                span = Span(
                    name, trace_id=remote[0], parent_id=remote[1],
                    attrs=attrs or None,
                )
                span.boundary = True
            else:
                span = Span(name, trace_id=_next_id(), attrs=attrs or None)
            span.local_root = True
        else:
            span = parent.child(name, attrs=attrs or None)
            span.local_root = parent.boundary
        return _SpanContext(self, span)

    # ``span`` differs from ``trace`` only in intent: it never *starts*
    # a trace — without an open trace it is a no-op, so instrumented
    # library code costs nothing when nobody upstream asked for a trace.
    def span(self, name: str, **attrs) -> _SpanContext:
        if not self.enabled:
            return _SpanContext(self, NOOP_SPAN)
        parent = self.current()
        if parent is None:
            return _SpanContext(self, NOOP_SPAN)
        return _SpanContext(self, parent.child(name, attrs=attrs or None))

    def record_span(self, name: str, seconds: float, **attrs) -> None:
        """Fold an already-measured leaf into the current span.

        Aggregates rather than allocates: one dict slot per stage name,
        so the trace stays small enough to serialize into the slow-query
        log.  Numeric attributes are summed.
        """
        if not self.enabled:
            return
        parent = self.current()
        if parent is None:
            return
        acc = parent.stages.get(name)
        if acc is None:
            acc = parent.stages[name] = {"count": 0, "seconds": 0.0}
        acc["count"] += 1
        acc["seconds"] += seconds
        for key, value in attrs.items():
            if isinstance(value, (int, float)):
                acc[key] = acc.get(key, 0) + value


def render_span_tree(tree: dict, indent: int = 0) -> List[str]:
    """Pretty-print a serialized span tree (``Span.to_dict`` shape).

    One line per span — name, duration, interesting attrs — with
    aggregated stage leaves listed beneath their owning span.  Shared by
    ``repro trace`` and the loadtest worst-trace report.
    """
    if not tree:
        return []
    pad = "  " * indent
    dur = tree.get("duration_seconds", 0.0) or 0.0
    attrs = tree.get("attrs") or {}
    attr_text = " ".join(
        f"{key}={value}" for key, value in sorted(attrs.items())
    )
    line = f"{pad}{tree.get('name', '?')}  {dur * 1000.0:.2f}ms"
    if attr_text:
        line += f"  [{attr_text}]"
    lines = [line]
    for name, acc in sorted((tree.get("stages") or {}).items()):
        seconds = acc.get("seconds", 0.0)
        count = acc.get("count", 0)
        line = f"{pad}  - {name}  {seconds * 1000.0:.2f}ms  (x{count})"
        sums = " ".join(
            f"{key}={value}" for key, value in sorted(acc.items())
            if key not in ("seconds", "count")
        )
        lines.append(f"{line}  [{sums}]" if sums else line)
    for child in tree.get("children") or ():
        lines.extend(render_span_tree(child, indent + 1))
    return lines
