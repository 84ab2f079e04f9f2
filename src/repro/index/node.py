"""TPR-tree nodes.

A node corresponds to one disk page (see :mod:`repro.storage.pages`).  Leaf
nodes hold :class:`~repro.motion.model.Motion` entries; internal nodes hold
child nodes.  Every node carries a :class:`~repro.index.tpbr.TPBR` bounding
all entries for every time at or after the bound's anchor.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from ..core.errors import IndexError_
from ..motion.model import Motion
from .tpbr import TPBR

__all__ = ["Node", "motion_columns"]


def motion_columns(motions: Sequence[Motion]) -> np.ndarray:
    """``(x, y, vx, vy, t_ref)`` of every motion, one column each."""
    rows = [(m.x, m.y, m.vx, m.vy, m.t_ref) for m in motions]
    return np.array(rows, dtype=float).reshape(len(rows), 5).T.copy()


class Node:
    """One TPR-tree node / disk page."""

    __slots__ = ("page_id", "level", "entries", "parent", "bound", "_cols")

    def __init__(self, page_id: int, level: int, t_ref: float) -> None:
        self.page_id = page_id
        self.level = level  # 0 = leaf
        self.entries: List[Union[Motion, "Node"]] = []
        self.parent: Optional["Node"] = None
        self.bound: TPBR = TPBR.empty(t_ref)
        self._cols: Optional[np.ndarray] = None

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def __len__(self) -> int:
        return len(self.entries)

    def columns(self) -> np.ndarray:
        """The entries as one array, a column per entry, cached.

        A leaf's columns are :func:`motion_columns` of its motions, an
        internal node's the :meth:`TPBR.column` of each child bound.  The cache is dropped whenever ``entries``
        changes and a child's column is rewritten whenever its bound does
        (:meth:`_publish_bound`), so it always equals a fresh build —
        ``TPRTree.validate`` checks exactly that.
        """
        if self._cols is None:
            self._cols = self.fresh_columns()
        return self._cols

    def fresh_columns(self) -> np.ndarray:
        if self.is_leaf:
            return motion_columns(self.entries)
        rows = [child.bound.column() for child in self.entries]
        return np.array(rows, dtype=float).reshape(len(rows), 9).T.copy()

    def _publish_bound(self) -> None:
        """Rewrite this node's column in its parent's cached columns."""
        parent = self.parent
        if parent is not None and parent._cols is not None:
            parent._cols[:, parent.entries.index(self)] = self.bound.column()

    def add(self, entry: Union[Motion, "Node"]) -> None:
        """Append an entry and grow the bound; sets child parent pointers."""
        self.entries.append(entry)
        if isinstance(entry, Node):
            if self.is_leaf:
                raise IndexError_("cannot add a child node to a leaf")
            entry.parent = self
            self._cols = None
            self.bound.extend_tpbr(entry.bound)
        else:
            if not self.is_leaf:
                raise IndexError_("cannot add a motion to an internal node")
            if self._cols is not None:
                self._cols = np.concatenate(
                    (self._cols, motion_columns([entry])), axis=1
                )
            self.bound.extend_motion(entry)
        self._publish_bound()

    def grow(self, motion: Motion) -> None:
        """Extend the bound over a motion inserted somewhere below."""
        self.bound.extend_motion(motion)
        self._publish_bound()

    def remove(self, child: "Node") -> None:
        """Drop a child; the bound stays loose until :meth:`retighten`."""
        self.entries.remove(child)
        self._cols = None

    def discard(self, oids) -> None:
        """Drop the motions whose object id is in ``oids`` from a leaf; the
        bound stays loose until :meth:`retighten`."""
        keep = [m.oid not in oids for m in self.entries]
        self.entries = [m for m, kept in zip(self.entries, keep) if kept]
        if self._cols is not None:
            # compress, not cols[:, keep]: rows must stay contiguous
            self._cols = np.compress(keep, self._cols, axis=1)

    def set_entries(
        self,
        entries: List[Union[Motion, "Node"]],
        t_ref: float,
        cols: Optional[np.ndarray] = None,
    ) -> None:
        """Replace all entries (``cols``: their columns, when the caller
        has them) and bound them afresh, anchored at ``t_ref``."""
        self.entries = entries
        self._cols = cols
        if not self.is_leaf:
            for child in entries:
                child.parent = self
        self.retighten(t_ref)

    def retighten(self, t_ref: float) -> None:
        """Recompute the bound from scratch, anchored at ``t_ref``.

        Called after deletions (bounds may shrink) and periodically on
        updates; this is the TPR-tree's "tightening" step.  A leaf's bound
        is one min/max over its motion columns — elementwise the same
        ``x + (t_ref - t0) * vx`` as :meth:`Motion.position_at`, so it
        equals the :meth:`TPBR.extend_motion` loop's.
        """
        bound = TPBR.empty(t_ref)
        if not self.is_leaf:
            for child in self.entries:
                bound.extend_tpbr(child.bound)
        elif self.entries:
            cols = self.columns()
            stacked = np.concatenate(
                (cols[0:2] + (t_ref - cols[4]) * cols[2:4], cols[2:4])
            )
            x1, y1, vx1, vy1 = stacked.min(axis=1).tolist()
            x2, y2, vx2, vy2 = stacked.max(axis=1).tolist()
            bound = TPBR(t_ref, x1, y1, x2, y2, vx1, vy1, vx2, vy2)
        self.bound = bound
        self._publish_bound()

    def iter_subtree_motions(self):
        """Yield every motion stored at or below this node."""
        if self.is_leaf:
            yield from self.entries
        else:
            for child in self.entries:
                yield from child.iter_subtree_motions()

    def subtree_nodes(self):
        """Yield every node of the subtree rooted here (preorder)."""
        yield self
        if not self.is_leaf:
            for child in self.entries:
                yield from child.subtree_nodes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else f"internal(level={self.level})"
        return f"Node(page={self.page_id}, {kind}, entries={len(self.entries)})"
