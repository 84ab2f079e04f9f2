"""The TPR-tree: a time-parameterized R-tree over linearly moving points.

This is the index the paper assumes for the refinement step of the FR
method (Section 4): it stores predicted trajectories and answers timestamped
spatial range queries.  Query page accesses are routed through a simulated
:class:`~repro.storage.buffer.BufferPool` so the experiment harness can
charge I/O exactly as the paper does; update I/O is deliberately *not*
charged (Section 4: index maintenance is shared with other query types).

Implementation notes
--------------------
* The tree stores no motions.  A leaf holds rows of the
  :class:`~repro.motion.table.ObjectTable` it was built over and reads
  their columns there (a batched query gathers its visited leaves' rows
  once, after the descent); a motion is a degenerate TPBR, so leaves and
  internal nodes share every bounding expression (:meth:`Node.columns`).
* The tree is a derived index, rebuilt when it is read rather than
  maintained per report (Dittrich et al., "Indexing Moving Objects Using
  Short-Lived Throwaway Indexes", SSTD 2009).  A wave of reports or
  retires, and a snapshot restore, only mark it stale; the first read
  after that — a range query, :meth:`validate`, or a look at its shape —
  repacks the whole table by one Sort-Tile-Recursive :meth:`bulk_load`,
  anchored at the current clock.  One repack costs less than one wave of
  per-report ChooseSubtree descents, splits and condenses did, at every
  scale measured (docs/performance.md, "The TPR-tree is rebuilt when it
  is read").
* Concurrent readers share the server's read lock, so the rebuild runs
  under a lock of the tree's own: one reader repacks, the others wait for
  it and read the new tree.  Writers hold the server's write lock, so the
  table does not move under a rebuild.
"""

from __future__ import annotations

import threading
import weakref
from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..core.errors import IndexError_, InvalidParameterError
from ..core.geometry import Rect
from ..motion.table import ObjectTable
from ..motion.updates import Columns, UpdateListener, Wave
from ..storage.buffer import BufferPool
from ..storage import pages
from ..telemetry import TELEMETRY
from ..telemetry import instruments as tm
from .node import Node, retighten_all
from .positions import deal_positions, query_windows

__all__ = ["TPRTree"]


class TPRTree(UpdateListener):
    """Disk-page-shaped TPR-tree with simulated I/O accounting."""

    def __init__(
        self,
        table: ObjectTable,
        horizon: float,
        buffer_pool: Optional[BufferPool] = None,
    ) -> None:
        if horizon <= 0:
            raise InvalidParameterError(f"horizon must be positive, got {horizon}")
        # Weak: the table owns its listeners, so a strong back-pointer would
        # tie every maintained structure into a cycle only the GC can free.
        self.table = weakref.proxy(table)
        self.horizon = horizon
        self.buffer = buffer_pool
        self._tnow = float(table.tnow)
        self._leaf_fanout = pages.LEAF_FANOUT
        self._internal_fanout = pages.INTERNAL_FANOUT
        self._next_page = 0
        self._lock = threading.Lock()
        # The rows the waves seen so far leave in the table, which a rebuild
        # indexes: a wave that does not carry this count to the table's is
        # one the tree has seen already, or follows one it missed.
        self._indexed = len(table)
        self._stale = self._indexed > 0
        self._root = self._new_node(level=0)

    # ------------------------------------------------------------------
    # UpdateListener protocol: writes only mark the tree stale
    # ------------------------------------------------------------------
    def on_advance(self, tnow: int, motions: Columns) -> None:
        self._tnow = max(self._tnow, float(tnow))

    def on_report_batch(self, wave: Wave) -> None:
        """Note a wave; the next read rebuilds the tree over the table."""
        self._tnow = max(self._tnow, float(wave.tnow))
        indexed = self._indexed + wave.rows.shape[0] - wave.deleted_rows.shape[0]
        if indexed != len(self.table):
            raise IndexError_(
                f"a wave taking the tree from {self._indexed} to {indexed} rows "
                f"leaves the table with {len(self.table)}: seen twice, or one missed"
            )
        self._indexed = indexed
        self._stale = True

    def mark_stale(self) -> None:
        """The table was restored behind the listeners: rebuild on the next
        read, from whatever the table holds then."""
        self._indexed = len(self.table)
        self._stale = True

    def _catch_up(self, kind: str) -> Node:
        """The root, rebuilt first when a write made the tree stale.

        ``kind`` names the read that triggered a rebuild (the
        ``repro_tpr_repacks_total`` label); inside a trace the rebuild is a
        ``catch_up`` span — under an FR query, part of its fetch stage.
        The first of several racing readers rebuilds; the rest block on the
        lock, then see it fresh.
        """
        if self._stale:
            with self._lock:
                if self._stale:
                    with TELEMETRY.tracer.span("catch_up", kind=kind) as span:
                        self.bulk_load()
                        span.set(objects=self._indexed)
                    tm.TPR_REPACKS.labels(kind).inc()
        return self._root

    # ------------------------------------------------------------------
    # public API: every read brings the tree up to date first
    # ------------------------------------------------------------------
    @property
    def root(self) -> Node:
        return self._catch_up("shape")

    def __len__(self) -> int:
        self._catch_up("shape")
        return self._indexed

    @property
    def height(self) -> int:
        return self.root.level + 1

    def node_count(self) -> int:
        return sum(1 for _ in self.root.subtree_nodes())

    def range_query(self, rect: Rect, qt: float, charge_io: bool = True) -> List[int]:
        """Ids of the objects whose predicted position at ``qt`` lies in
        ``rect`` (closed), in visit order.

        The one-rect reference traversal :meth:`range_positions_batch` is
        tested against.  Visited pages are charged against the buffer pool
        when ``charge_io`` is set.  The containment is *closed* on every
        edge — callers needing half-open semantics re-filter (deliberate
        superset; see :meth:`TPBR.intersects_rect_at`).
        """
        root = self._catch_up("range_query")
        if qt < self._tnow:
            raise IndexError_(
                f"TPR-tree bounds are only valid for t >= {self._tnow}, got {qt}"
            )
        results: List[int] = []
        stack = [root]
        while stack:
            node = stack.pop()
            self._touch(node, charge_io)
            if node.is_leaf:
                motions = self.table.columns(node.entries)
                x, y = motions.positions_at(qt)
                inside = (rect.x1 <= x) & (x <= rect.x2) & (rect.y1 <= y) & (y <= rect.y2)
                results.extend(motions.oid[inside].tolist())
            else:
                for child in node.entries:
                    if child.bound.intersects_rect_at(rect, qt):
                        stack.append(child)
        return results

    def range_positions_batch(
        self, rects, qts, charge_io: bool = True
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`range_query` returning positions as CSR columns.

        ``rects`` is an ``(R, 4)`` array of closed ``x1, y1, x2, y2``
        windows, ``qts`` a scalar timestamp or one timestamp per rect.  The
        answer is ``(offsets, px, py)``: rect ``r``'s positions at its
        timestamp are ``px/py[offsets[r]:offsets[r + 1]]``, in unspecified
        order (see :mod:`repro.index.positions`).

        All rects share one descent: every node carries the subset of rects
        whose window still intersects its bound, so each page is touched
        (and charged) once for the whole batch, in DFS order.  A reached
        leaf is only collected; after the descent its rows are dealt to the
        windows by :func:`~repro.index.positions.deal_positions`.  Per rect
        that is the set ``range_query(rect, qt)`` returns: a node's bound
        contains every motion beneath it from its anchor on, so any object
        inside a window lies in a leaf that window reaches.
        """
        root = self._catch_up("fetch")
        rb, qts_arr = query_windows(rects, qts)
        n_rects = rb.shape[0]
        if n_rects and float(qts_arr.min()) < self._tnow:
            raise IndexError_(
                f"TPR-tree bounds are only valid for t >= {self._tnow}, "
                f"got {float(qts_arr.min())}"
            )
        leaves: List[np.ndarray] = []
        stack: List[tuple] = [(root, np.arange(n_rects))] if n_rects else []
        while stack:
            node, active = stack.pop()
            self._touch(node, charge_io)
            if node.is_leaf:
                leaves.append(node.entries)
            else:
                bx1, by1, bvx1, bvy1, bx2, by2, bvx2, bvy2, bt = node.columns(self.table)
                dt = qts_arr[active][None, :] - bt[:, None]
                x_lo = bx1[:, None] + bvx1[:, None] * dt
                x_hi = bx2[:, None] + bvx2[:, None] * dt
                y_lo = by1[:, None] + bvy1[:, None] * dt
                y_hi = by2[:, None] + bvy2[:, None] * dt
                overlap = ~(
                    (x_hi < rb[active, 0][None, :])
                    | (rb[active, 2][None, :] < x_lo)
                    | (y_hi < rb[active, 1][None, :])
                    | (rb[active, 3][None, :] < y_lo)
                )
                for c, child in enumerate(node.entries):
                    sub = active[overlap[c]]
                    if sub.size:
                        stack.append((child, sub))
        rows = np.concatenate(leaves) if leaves else np.empty(0, dtype=np.intp)
        return deal_positions(self.table.columns(rows), rb, qts_arr, self.horizon)

    def validate(self) -> None:
        """Structural invariants; raises :class:`IndexError_` on violation.

        Brings the tree up to date, then checks fanout limits, the internal
        nodes' cached child bounds, that the leaves hold the table's live
        rows each once, and the TPR-tree's bounding invariant: **every
        node's bound contains every motion in its subtree** at the current
        time and at the horizon end.  A table written behind the tree's
        back (not through a wave) fails the last two.
        """
        root = self._catch_up("validate")
        seen_rows: List[np.ndarray] = []
        for node in root.subtree_nodes():
            if len(node.entries) == 0:
                if node is not root:
                    raise IndexError_(f"empty non-root node {node.page_id}")
                continue
            limit = self._leaf_fanout if node.is_leaf else self._internal_fanout
            if len(node.entries) > limit:
                raise IndexError_(f"node {node.page_id} overflows fanout {limit}")
            if node.is_leaf:
                seen_rows.append(node.entries)
            elif not np.array_equal(node.columns(self.table), node.child_columns()):
                raise IndexError_(f"node {node.page_id} caches stale child bounds")
            motions = self.table.columns(node.subtree_rows())
            for t in (self._tnow, self._tnow + self.horizon):
                x, y = motions.positions_at(t)
                outer = node.bound.rect_at(t)
                escaped = ~(
                    (outer.x1 - 1e-6 <= x) & (x <= outer.x2 + 1e-6)
                    & (outer.y1 - 1e-6 <= y) & (y <= outer.y2 + 1e-6)
                )
                if escaped.any():
                    raise IndexError_(
                        f"object {motions.oid[escaped][0]} escapes node "
                        f"{node.page_id} bound at t={t}"
                    )
        rows = np.concatenate(seen_rows) if seen_rows else np.empty(0, np.intp)
        if not np.array_equal(np.sort(rows), np.sort(self.table.rows())):
            raise IndexError_("indexed rows are not the table's live rows, each once")

    def bulk_load(self) -> None:
        """Replace the whole tree by a Sort-Tile-Recursive packing of the
        table's live rows, anchored at the current clock.

        Leaves are packed from vertical slabs of the x-sorted rows, each
        slab y-sorted (classic STR); upper levels chunk children in slab
        order.  Every node is bounded afresh, so :meth:`validate`'s
        containment invariant holds by construction.  All previous pages
        are invalidated — a rebuild rewrites the file in the simulated-I/O
        model.
        """
        self._free(self._root.subtree_nodes())
        self._tnow = max(self._tnow, float(self.table.tnow))
        rows = self.table.rows()
        n = rows.shape[0]
        self._indexed = n
        if n == 0:
            self._root = self._new_node(level=0)
            self._stale = False
            return
        px, py = self.table.columns(rows).positions_at(self._tnow)
        per_leaf = self._leaf_fanout
        n_leaves = -(-n // per_leaf)
        n_slabs = int(np.ceil(np.sqrt(n_leaves)))
        slab_pts = -(-n // n_slabs)
        order_x = np.argsort(px, kind="stable")
        nodes: List[Node] = []
        for s in range(0, n, slab_pts):
            slab = order_x[s : s + slab_pts]
            slab = slab[np.argsort(py[slab], kind="stable")]
            for c in range(0, len(slab), per_leaf):
                leaf = self._new_node(level=0)
                leaf.adopt(rows[slab[c : c + per_leaf]])
                nodes.append(leaf)
        retighten_all(nodes, self._tnow, self.table)
        level = 1
        while len(nodes) > 1:
            parents = []
            for c in range(0, len(nodes), self._internal_fanout):
                parent = self._new_node(level)
                parent.adopt(nodes[c : c + self._internal_fanout])
                parents.append(parent)
            retighten_all(parents, self._tnow, self.table)
            nodes = parents
            level += 1
        self._root = nodes[0]
        self._stale = False

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _new_node(self, level: int) -> Node:
        node = Node(self._next_page, level, t_ref=self._tnow)
        self._next_page += 1
        return node

    def _touch(self, node: Node, charge_io: bool) -> None:
        if charge_io and self.buffer is not None:
            self.buffer.access(node.page_id)

    def _free(self, nodes: Iterable[Node]) -> None:
        """Drop the pages of nodes that left the tree from the buffer pool."""
        if self.buffer is not None:
            for node in nodes:
                self.buffer.invalidate(node.page_id)
