"""Location-update protocol (Section 5.1 of the paper).

Objects communicate with the server through two update kinds:

* an **insertion update** ``(t_now, x, y, vx, vy)`` registers a movement that
  starts at ``(x, y)`` with the given velocity at time ``t_now``;
* a **deletion update** ``(t1, t_now, x1, y1, vx, vy)`` retracts, effective at
  ``t_now``, a movement previously registered at time ``t1``.

A position report from an already-known object therefore expands into a
deletion of its previous motion followed by an insertion of the new one.
The :class:`~repro.motion.table.ObjectTable` renders a tick's reports as one
columnar :class:`Wave` of such deletions and insertions, and every maintained
structure (density histograms, Chebyshev coefficients, the TPR-tree)
subscribes to that one stream through :class:`UpdateListener`.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from ..core.errors import InvalidParameterError, ListenerFanoutError

__all__ = [
    "Columns", "Wave", "UpdateListener", "dispatch", "PASS_JOB_SLOTS",
    "Workspace", "workspace", "ring_window", "entering_slots",
]

# Motions x timestamps one pass over a window may expand at once: the one
# working-set budget of every pass that projects motions over timestamps
# (the DH and PA ring listeners, their entry materialisation, the audit's
# recount), from which FR's sweep budget is derived too.  Whole-table waves
# -- the bulk load, a replayed bulk load, a replica's catch-up -- walk their
# motions in runs of this size, and a pass takes its arrays from its
# thread's :class:`Workspace`, which outlives it (~520 B per
# motion-timestamp at PA's high-water mark).  Both halves are needed.
# glibc serves an array above its mmap threshold with fresh pages and
# unmaps it on free; freeing one raises the threshold to that array's size
# and the heap-trim threshold to twice it.  Passes of fresh temporaries
# therefore fault their working set back in whenever it exceeds twice the
# largest array freed before: with 2^16 a pass (~30 MB) a CH10K tick took
# ~5 300 minor faults, and passes of 2^13 with fresh temporaries made even
# a CH2K tick fault ~1 300.  From a workspace a pass after the first
# touches only pages it touched before, whatever the process allocated
# earlier.  Measured with the workspace (the scale probe's load and 20
# ticks, 2 cores, medians of three alternating runs): a CH100K tick took
# 611 / 587 / 597 ms at 2^12 / 2^13 / 2^14 (729 at 2^16 with fresh
# temporaries), CH50K 316 / 316 / 381 and CH10K 54 / 52 / 55, while the
# CH10K server held 2 806 / 3 327 / ~3 900 B per object after its load.
# 2^13's ~4 % at CH100K does not pay for crossing the probe's
# RSS-per-object gate (3 000 B), so the budget is 2^12.
PASS_JOB_SLOTS = 1 << 12


class Workspace:
    """Scratch memory that outlives a pass: one arena, handed out stack-wise.

    ``work(shape, dtype)`` is an array taken from the top of the arena, and
    a ``with work.frame():`` block gives back, when it ends, every array
    taken inside it, so the steps of a pass reuse each other's bytes.  When
    a pass asks for more than the arena holds, the excess comes from fresh
    arrays, and once the outermost frame ends the arena grows to the most
    the pass held (plus an eighth): a pass after the first takes its arrays
    from pages it touched before.  A workspace serves one pass at a time, so
    every thread has its own (:func:`workspace`).
    """

    _ALIGN = 64  # bytes: every array starts on a cache line

    def __init__(self) -> None:
        self._arena = np.empty(0, dtype=np.uint8)
        self._top = 0
        self._high = 0
        self._arange = np.arange(0, dtype=np.int64)

    def __call__(self, shape, dtype=float) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = (math.prod(shape) if isinstance(shape, tuple) else shape) * dtype.itemsize
        start = self._top
        self._top += -(-nbytes // self._ALIGN) * self._ALIGN
        self._high = max(self._high, self._top)
        if self._top > self._arena.size:
            return np.empty(shape, dtype=dtype)
        return self._arena[start : start + nbytes].view(dtype).reshape(shape)

    @contextmanager
    def frame(self) -> Iterator["Workspace"]:
        top = self._top
        try:
            yield self
        finally:
            self._top = top
            if top == 0 and self._high > self._arena.size:
                self._arena = np.empty(self._high + self._high // 8, dtype=np.uint8)

    def arange(self, n: int) -> np.ndarray:
        """``np.arange(n)`` (int64), from a buffer kept for the purpose."""
        if self._arange.size < n:
            self._arange = np.arange(n + n // 8, dtype=np.int64)
        return self._arange[:n]

    def nbytes(self) -> int:
        """Bytes the workspace holds between passes."""
        return self._arena.nbytes + self._arange.nbytes


_THREAD = threading.local()


def workspace() -> Workspace:
    """This thread's :class:`Workspace`.  Every pass on the thread takes its
    arrays from it — the DH and PA listeners' of every server on the thread
    (a replayed or recovered server's too), their reads past the window and
    the audit's recount — so a process holds one arena per thread that runs
    passes, and a server built after another starts warm."""
    work = getattr(_THREAD, "work", None)
    if work is None:
        work = _THREAD.work = Workspace()
    return work


@dataclass(frozen=True)
class Columns:
    """Motions as aligned numpy columns: entry ``i`` of every field is motion
    ``i``.  The fields are :class:`~repro.motion.model.Motion`'s, in its
    order; ``oid`` and ``t_ref`` are int64 (exact), the rest float64."""

    oid: np.ndarray
    t_ref: np.ndarray
    x: np.ndarray
    y: np.ndarray
    vx: np.ndarray
    vy: np.ndarray

    def __len__(self) -> int:
        return self.oid.shape[0]

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter((self.oid, self.t_ref, self.x, self.y, self.vx, self.vy))

    def tuples(self) -> Iterator[tuple]:
        """One ``(oid, t_ref, x, y, vx, vy)`` of Python scalars per motion."""
        return zip(*(column.tolist() for column in self))

    def take(self, index) -> "Columns":
        """The motions at ``index`` (any numpy index), as columns."""
        return Columns(*(column[index] for column in self))

    def passes(self, slots: int) -> Iterator[Tuple[slice, "Columns"]]:
        """The motions in order, in consecutive runs of at most
        ``PASS_JOB_SLOTS // slots`` (and at least one): ``(rows, run)`` per
        run, ``run`` being ``self.take(rows)``.  A pass of ``slots``
        timestamps over one run expands at most :data:`PASS_JOB_SLOTS`
        motion-timestamps."""
        step = max(1, PASS_JOB_SLOTS // slots)
        for start in range(0, len(self), step):
            rows = slice(start, start + step)
            yield rows, self.take(rows)

    @staticmethod
    def concatenate(parts: Iterable["Columns"]) -> "Columns":
        return Columns(*(np.concatenate(columns) for columns in zip(*parts)))

    def positions_at(self, t: float) -> Tuple[np.ndarray, np.ndarray]:
        """Predicted position of every motion at time ``t`` — elementwise
        the ``x + (t - t_ref) * vx`` of :meth:`Motion.position_at`."""
        dt = t - self.t_ref
        return self.x + dt * self.vx, self.y + dt * self.vy

    def trajectory(
        self, ts: np.ndarray, out: Optional[Tuple[np.ndarray, np.ndarray]] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`positions_at` every timestamp of ``ts``: two ``(n,
        len(ts))`` grids, a row per motion, written into ``out`` if given."""
        ts = np.asarray(ts, dtype=float)
        if out is None:
            out = (np.empty((len(self), ts.shape[0])), np.empty((len(self), ts.shape[0])))
        xs, ys = out
        dt = np.subtract(ts[None, :], self.t_ref[:, None], out=ys)
        np.add(self.x[:, None], np.multiply(dt, self.vx[:, None], out=xs), out=xs)
        np.add(self.y[:, None], np.multiply(dt, self.vy[:, None], out=ys), out=ys)
        return xs, ys

    def covering(
        self, ts: np.ndarray, horizon: int, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Which motions' prediction windows ``[t_ref, t_ref + horizon]``
        cover which timestamps of ``ts``: an ``(n, len(ts))`` mask, written
        into ``out`` if given."""
        t_ref = self.t_ref[:, None]
        ts = np.asarray(ts)[None, :]
        out = np.less_equal(t_ref, ts, out=out)
        out &= ts <= t_ref + horizon
        return out


@dataclass(frozen=True)
class Wave:
    """One batch of updates effective at ``tnow``; each object at most once.

    ``deleted`` holds the retracted motions *by value*: by the time a
    listener sees the wave their table rows (``deleted_rows``) may already
    hold other motions — a re-report overwrites its object's row in place
    and a first report may reuse the row a retire freed.  ``inserted`` are
    the new motions in report order and ``rows`` the table rows they now
    occupy; ``supersedes[i]`` is the index in ``deleted`` of the motion that
    report ``i`` replaces, or -1 for a first report.  A deleted motion no
    report supersedes is a retire.
    """

    tnow: int
    deleted: Columns
    deleted_rows: np.ndarray
    inserted: Columns
    rows: np.ndarray
    supersedes: np.ndarray


def ring_window(horizon: int, prediction_window: Optional[int], table) -> int:
    """W for a listener that stores the ``W + 1`` timestamps of the query
    window (DH, PA): ``prediction_window``, by default the whole horizon.  A
    ring shorter than the horizon builds the timestamps past it from
    ``table``, which it then needs."""
    window = horizon if prediction_window is None else prediction_window
    if not 0 <= window <= horizon:
        raise InvalidParameterError(
            f"prediction window must be in [0, {horizon}], got {window}"
        )
    if window < horizon and table is None:
        raise InvalidParameterError(
            "a ring shorter than the horizon needs the table for the timestamps past it"
        )
    return window


def entering_slots(t_old: int, t_new: int, slots: int) -> np.ndarray:
    """The timestamps that enter a ring of ``slots`` timestamps from the
    clock's, ``[t, t + slots)``, when it moves from ``t_old`` to ``t_new``:
    ``[t_old + slots, t_new + slots)``, or the whole new window after a jump
    of ``slots`` or more."""
    return np.arange(max(t_old + slots, t_new), t_new + slots, dtype=np.int64)


class UpdateListener:
    """Interface for structures maintained against the update stream.

    Both hooks default to no-ops, so a listener may observe only waves or
    only clock advances.
    """

    def on_report_batch(self, wave: Wave) -> None:  # noqa: B027 - optional hook
        """Called once per :class:`Wave` of deletions and insertions."""

    def on_advance(self, tnow: int, motions: Columns) -> None:  # noqa: B027 - optional hook
        """Called when the server clock moves forward to ``tnow``;
        ``motions`` are the table's live motions, in ``columns()`` order."""


def dispatch(listeners: Iterable[UpdateListener], hook: str, *payload) -> None:
    """Notify every listener, even if some of them fail.

    The maintained structures must never diverge from each other merely
    because one listener raised: every listener is invoked, failures are
    collected, and a single :class:`ListenerFanoutError` is raised at the
    end.  :class:`BaseException` subclasses (simulated crashes, Ctrl-C)
    propagate immediately — a dead process notifies nobody.
    """
    failures = []
    for listener in listeners:
        try:
            getattr(listener, hook)(*payload)
        except Exception as exc:  # noqa: BLE001 - collected and re-raised below
            failures.append((listener, exc))
    if failures:
        names = ", ".join(
            f"{type(listener).__name__}: {exc}" for listener, exc in failures
        )
        raise ListenerFanoutError(
            f"{len(failures)} listener(s) failed during {hook} ({names})",
            failures=failures,
        )
