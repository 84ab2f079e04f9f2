"""TPR-tree nodes.

A node corresponds to one disk page (see :mod:`repro.storage.pages`).  A
leaf's entries are rows of the :class:`~repro.motion.table.ObjectTable` —
an int array and nothing else; the motions themselves live only in the
table.  An internal node's entries are child nodes.  Every node carries a
:class:`~repro.index.tpbr.TPBR` bounding all entries for every time at or
after the bound's anchor.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from .tpbr import TPBR, anchored_edges

__all__ = ["Node", "retighten_all"]


class Node:
    """One TPR-tree node / disk page."""

    __slots__ = ("page_id", "level", "entries", "bound", "_cols")

    def __init__(self, page_id: int, level: int, t_ref: float) -> None:
        self.page_id = page_id
        self.level = level  # 0 = leaf
        self.entries: Union[np.ndarray, List["Node"]] = (
            np.empty(0, dtype=np.intp) if level == 0 else []
        )
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
        node caches its children's bounds, read once they are final (a
        tree is bounded bottom-up, level by level) and dropped whenever
        ``entries`` changes, so it always equals :meth:`child_columns` —
        ``TPRTree.validate`` checks exactly that.
        """
        if self.is_leaf:
            return _row_columns(table, self.entries)
        if self._cols is None:
            self._cols = self.child_columns()
        return self._cols

    def child_columns(self) -> np.ndarray:
        rows = [child.bound.column() for child in self.entries]
        return np.array(rows, dtype=float).reshape(len(rows), 9).T.copy()

    def adopt(self, entries: Union[np.ndarray, List["Node"]]) -> None:
        """Replace all entries; the bound is stale until :func:`retighten_all`."""
        self.entries = entries
        self._cols = None

    def subtree_rows(self) -> np.ndarray:
        """Every table row stored at or below this node, in leaf order."""
        return np.concatenate([node.entries for node in self.subtree_nodes() if node.is_leaf])

    def subtree_nodes(self):
        """Yield every node of the subtree rooted here (preorder)."""
        yield self
        if not self.is_leaf:
            for child in self.entries:
                yield from child.subtree_nodes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else f"internal(level={self.level})"
        return f"Node(page={self.page_id}, {kind}, entries={len(self.entries)})"


def retighten_all(nodes: Sequence[Node], t_ref: float, table) -> None:
    """Recompute the bounds of ``nodes``, all of one level and none empty,
    from scratch, anchored at ``t_ref``.

    A bulk load bounds each level of the tree this way, leaves first: one
    gather of the entries' bounds (one table read over all the leaves'
    rows, or the internal nodes' cached columns side by side), one
    re-anchoring, then a min/max per node by ``reduceat``.  Min and max are
    exact, so each bound is the one a node-by-node loop computes.
    """
    if nodes[0].is_leaf:
        cols = _row_columns(table, np.concatenate([node.entries for node in nodes]))
    else:
        cols = np.concatenate([node.columns(table) for node in nodes], axis=1)
    lo, hi = anchored_edges(cols, t_ref)
    starts = np.cumsum([0] + [len(node.entries) for node in nodes[:-1]])
    lo = np.minimum.reduceat(lo, starts, axis=1).T.tolist()
    hi = np.maximum.reduceat(hi, starts, axis=1).T.tolist()
    for node, (x1, y1, vx1, vy1), (x2, y2, vx2, vy2) in zip(nodes, lo, hi):
        node.bound = TPBR(t_ref, x1, y1, x2, y2, vx1, vy1, vx2, vy2)


def _row_columns(table, rows: np.ndarray) -> np.ndarray:
    """Table ``rows`` as bound columns: a motion is the degenerate
    :meth:`TPBR.point`."""
    _, t_ref, x, y, vx, vy = table.columns(rows)
    return np.array((x, y, vx, vy, x, y, vx, vy, t_ref), dtype=float)
