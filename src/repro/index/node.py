"""TPR-tree nodes.

A node corresponds to one disk page (see :mod:`repro.storage.pages`).  A
leaf's entries are rows of the :class:`~repro.motion.table.ObjectTable` —
an int array and nothing else; the motions themselves live only in the
table.  An internal node's entries are child nodes.  Every node carries a
:class:`~repro.index.tpbr.TPBR` bounding all entries for every time at or
after the bound's anchor.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from .tpbr import TPBR, anchored_edges

__all__ = ["Node"]


class Node:
    """One TPR-tree node / disk page."""

    __slots__ = ("page_id", "level", "entries", "parent", "bound", "_cols")

    def __init__(self, page_id: int, level: int, t_ref: float) -> None:
        self.page_id = page_id
        self.level = level  # 0 = leaf
        self.entries: Union[np.ndarray, List["Node"]] = (
            np.empty(0, dtype=np.intp) if level == 0 else []
        )
        self.parent: Optional["Node"] = None
        self.bound: TPBR = TPBR.empty(t_ref)
        self._cols: Optional[np.ndarray] = None

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def __len__(self) -> int:
        return len(self.entries)

    def columns(self, table) -> np.ndarray:
        """The entries' bounds as one array, a :meth:`TPBR.column` per entry.

        A leaf reads its rows from ``table`` — one gather, never cached; a
        motion is the degenerate bound :meth:`TPBR.point`.  An internal
        node caches its children's bounds: the cache is dropped whenever
        ``entries`` changes and a child's column is rewritten whenever its
        bound does (:meth:`_publish_bound`), so it always equals
        :meth:`child_columns` — ``TPRTree.validate`` checks exactly that.
        """
        if self.is_leaf:
            _, t_ref, x, y, vx, vy = table.columns(self.entries)
            return np.array((x, y, vx, vy, x, y, vx, vy, t_ref), dtype=float)
        if self._cols is None:
            self._cols = self.child_columns()
        return self._cols

    def child_columns(self) -> np.ndarray:
        rows = [child.bound.column() for child in self.entries]
        return np.array(rows, dtype=float).reshape(len(rows), 9).T.copy()

    def _publish_bound(self) -> None:
        """Rewrite this node's column in its parent's cached columns."""
        parent = self.parent
        if parent is not None and parent._cols is not None:
            parent._cols[:, parent.entries.index(self)] = self.bound.column()

    def add(self, entry: Union[int, "Node"], bound: TPBR) -> None:
        """Append a table row (leaf) or a child node (which gets its parent
        pointer set) and grow over its ``bound``."""
        if self.is_leaf:
            self.entries = np.append(self.entries, entry)
        else:
            self.entries.append(entry)
            entry.parent = self
            self._cols = None
        self.grow(bound)

    def grow(self, bound: TPBR) -> None:
        """Extend the bound over something inserted at or below this node."""
        self.bound.extend_tpbr(bound)
        self._publish_bound()

    def remove(self, child: "Node") -> None:
        """Drop a child; the bound stays loose until :meth:`retighten`."""
        self.entries.remove(child)
        self._cols = None

    def discard(self, rows) -> None:
        """Drop ``rows`` from a leaf, keeping the order of the rest; the
        bound stays loose until :meth:`retighten`."""
        self.entries = self.entries[(self.entries[:, None] != rows).all(axis=1)]

    def set_entries(self, entries: Union[np.ndarray, List["Node"]], t_ref: float, table) -> None:
        """Replace all entries and bound them afresh, anchored at ``t_ref``."""
        self.entries = entries
        self._cols = None
        if not self.is_leaf:
            for child in entries:
                child.parent = self
        self.retighten(t_ref, table)

    def retighten(self, t_ref: float, table) -> None:
        """Recompute the bound from scratch, anchored at ``t_ref``.

        Called after deletions (bounds may shrink) and periodically on
        updates; this is the TPR-tree's "tightening" step: one min/max over
        the entries' bounds re-anchored at ``t_ref``.
        """
        bound = TPBR.empty(t_ref)
        if len(self.entries):
            lo, hi = anchored_edges(self.columns(table), t_ref)
            x1, y1, vx1, vy1 = lo.min(axis=1).tolist()
            x2, y2, vx2, vy2 = hi.max(axis=1).tolist()
            bound = TPBR(t_ref, x1, y1, x2, y2, vx1, vy1, vx2, vy2)
        self.bound = bound
        self._publish_bound()

    def subtree_rows(self) -> np.ndarray:
        """Every table row stored at or below this node, in leaf order."""
        leaves = [node.entries for node in self.subtree_nodes() if node.is_leaf]
        # an internal node whose children were all dissolved has none
        return np.concatenate(leaves) if leaves else np.empty(0, dtype=np.intp)

    def subtree_nodes(self):
        """Yield every node of the subtree rooted here (preorder)."""
        yield self
        if not self.is_leaf:
            for child in self.entries:
                yield from child.subtree_nodes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else f"internal(level={self.level})"
        return f"Node(page={self.page_id}, {kind}, entries={len(self.entries)})"
