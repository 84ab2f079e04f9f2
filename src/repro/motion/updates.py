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
from functools import cached_property
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
# thread's :class:`Workspace`, which outlives it (~580-620 B per
# motion-timestamp at PA's high-water mark).  Both halves are needed.
# glibc serves an array above its mmap threshold with fresh pages and
# unmaps it on free; freeing one raises the threshold to that array's size
# and the heap-trim threshold to twice it.  Passes of fresh temporaries
# therefore fault their working set back in whenever it exceeds twice the
# largest array freed before: with 2^16 a pass (~30 MB) a CH10K tick took
# ~5 300 minor faults, and passes of 2^13 with fresh temporaries made even
# a CH2K tick fault ~1 300.  From a workspace a pass after the first
# touches only pages it touched before, whatever the process allocated
# earlier.  Weighed with the workspace (the scale probe's load and 20
# ticks, 2 cores, medians of three alternating runs), after a pass's fixed
# cost was cut (~0.14 ms where it was ~0.27 for one motion at one
# timestamp):
#
#   road world   tick ms 2^12 / 2^13   PA+DH passes a tick   B/object after load
#   CH10K        62.6 / 50.0           12+12 / 7+7           2 784 / 3 256
#   CH50K        309 / 296             56.5+56.5 / 29+29     1 162 / 1 186
#   CH100K       618 / 582             111.5+111.5 / 56.5+56.5   913 / 915
#
# (before that cut: CH100K 611 / 587 / 597 ms at 2^12 / 2^13 / 2^14, 729
# at 2^16 with fresh temporaries; CH10K 2 806 / 3 327 / ~3 900 B).  2^13
# is faster at every size, but the CH10K server then holds ~3 260 B per
# object, over the scale probe's RSS-per-object gate (3 000 B): the
# process keeps its arena, and its heap part of the first pass's fresh
# arrays (an arena grown at the request that overflows it read 3 072 B,
# but tripled the bulk load's traced transient).  So the budget is 2^12.
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
        self._marks: list = []  # each open frame's top
        self._dtypes: dict = {}  # dtype argument -> np.dtype
        self._arange = np.arange(0, dtype=np.int64)

    def __call__(self, shape, dtype=float) -> np.ndarray:
        kind = self._dtypes.get(dtype)
        if kind is None:
            kind = self._dtypes[dtype] = np.dtype(dtype)
        nbytes = (math.prod(shape) if isinstance(shape, tuple) else shape) * kind.itemsize
        start = self._top
        self._top += -(-nbytes // self._ALIGN) * self._ALIGN
        if self._top > self._high:
            self._high = self._top
        if self._top > self._arena.size:
            return np.empty(shape, dtype=kind)
        return np.ndarray(shape, kind, self._arena, start)

    def frame(self) -> "Workspace":
        """``with work.frame():`` gives back, when the block ends, every
        array taken inside it."""
        self._marks.append(self._top)
        return self

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc) -> None:
        top = self._top = self._marks.pop()
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
        run, ``run`` being ``self.take(rows)`` (``self`` when one run holds
        them all).  A pass of ``slots``
        timestamps over one run expands at most :data:`PASS_JOB_SLOTS`
        motion-timestamps."""
        step = max(1, PASS_JOB_SLOTS // slots)
        if 0 < len(self) <= step:
            yield slice(0, len(self)), self
            return
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

    @cached_property
    def jobs(self) -> Tuple[Columns, np.ndarray]:
        """The wave as one job list in report order, and which jobs retract.

        Report ``t`` takes turn ``t``: the motion it supersedes is retracted
        just before it is registered.  A retire, which no report
        supersedes, takes the turn of its own index in ``deleted``, and two
        retractions in one turn go in ``deleted`` order.  Float sums (PA's
        coefficients) need this order; integer counts (DH) take it too, so
        a wave is interleaved once for every listener.
        """
        d, n = len(self.deleted), len(self.inserted)
        if not d or not n:
            return (self.inserted if n else self.deleted), np.full(d + n, d > 0)
        # A turn's four places: the retraction report t supersedes if it
        # is listed before deleted[t], the retire deleted[t], that
        # retraction otherwise, report t.
        place = np.full((max(d, n), 4), -1, dtype=np.intp)
        reports = (self.supersedes >= 0).nonzero()[0]
        gone = self.supersedes[reports]
        place[reports, 2 * (gone > reports)] = gone
        retired = np.ones(d, dtype=bool)
        retired[gone] = False
        retired = retired.nonzero()[0]
        place[retired, 1] = retired
        place[:n, 3] = np.arange(d, d + n)
        order = place[place >= 0]
        pairs = zip(self.deleted, self.inserted)
        return Columns(*(np.concatenate(pair).take(order) for pair in pairs)), order < d


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
