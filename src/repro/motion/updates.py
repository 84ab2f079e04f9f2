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

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from ..core.errors import InvalidParameterError, ListenerFanoutError

__all__ = [
    "Columns", "Wave", "UpdateListener", "dispatch", "PASS_JOB_SLOTS",
    "ring_window", "entering_slots",
]

# Motions x timestamps one pass over a window may expand at once.  A pass
# that projects motions over a window (the DH and PA ring listeners, their
# entry materialisation, the audit's recount) holds grids of tens to
# hundreds of bytes per motion-timestamp (PA: ~450 B), so whole-table waves
# -- the bulk load, a replayed bulk load, a replica's catch-up -- walk their
# motions in runs of this size and hold ~30 MB at any table size.  A
# steady-state CH2K tick (~115 jobs x 61 slots) is one pass.  Half this
# size made ticks slower: after passes that small, glibc's heap trim
# threshold (twice the largest array freed) falls below a tick's working
# set, and every wave faults its temporaries back in (~1 900 page faults,
# +3 ms per CH2K tick, measured with 121-slot rings).
PASS_JOB_SLOTS = 1 << 16


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

    def trajectory(self, ts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`positions_at` every timestamp of ``ts``: two ``(n,
        len(ts))`` grids, a row per motion."""
        dt = np.asarray(ts, dtype=float)[None, :] - self.t_ref[:, None]
        return (
            self.x[:, None] + dt * self.vx[:, None],
            self.y[:, None] + dt * self.vy[:, None],
        )

    def covering(self, ts: np.ndarray, horizon: int) -> np.ndarray:
        """Which motions' prediction windows ``[t_ref, t_ref + horizon]``
        cover which timestamps of ``ts``: an ``(n, len(ts))`` mask."""
        t_ref = self.t_ref[:, None]
        ts = np.asarray(ts)[None, :]
        return (t_ref <= ts) & (ts <= t_ref + horizon)


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
