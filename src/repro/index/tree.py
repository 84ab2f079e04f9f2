"""The TPR-tree: a time-parameterized R-tree over linearly moving points.

This is the index the paper assumes for the refinement step of the FR
method (Section 4): it stores predicted trajectories, supports insertion and
deletion driven by the location-update protocol, and answers timestamped
spatial range queries.  Query page accesses are routed through a simulated
:class:`~repro.storage.buffer.BufferPool` so the experiment harness can
charge I/O exactly as the paper does; update I/O is deliberately *not*
charged (Section 4: index maintenance is shared with other query types).

Implementation notes
--------------------
* The tree stores no motions.  A leaf holds rows of the
  :class:`~repro.motion.table.ObjectTable` it was built over and reads
  their columns there (a batched query gathers its visited leaves' rows
  once, after the descent); a motion is a
  degenerate TPBR, so leaves and internal nodes share every bounding,
  choose-subtree and split expression (:meth:`Node.columns`).
* Insertion descends by minimum enlargement of the *integral* bounding area
  over the horizon window ``[t_now, t_now + H]`` and splits overflowing
  nodes with the axis-sweep heuristic of :func:`repro.index.tpbr.pick_split`.
* Deletion locates leaves through a table-row -> leaf map (a standard
  implementation shortcut that avoids float-equality MBR searches; I/O
  accounting is unaffected because only queries are charged).
* A re-report whose new motion its leaf's bound still contains (position
  and velocity) stays in that leaf, which is only retightened — the
  bottom-up update of Lee et al. (VLDB 2003); every other report goes
  through deletion and choose-leaf insertion.
* Underflowing nodes are condensed: the node is removed and its remaining
  entries reinserted, as in Guttman's R-tree.  A wave of deletions is
  condensed once, leaf-grouped and level by level (:meth:`TPRTree._condense`).
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..core.errors import IndexError_, InvalidParameterError
from ..core.geometry import Rect
from ..motion.table import ObjectTable
from ..motion.updates import Columns, UpdateListener, Wave
from ..storage.buffer import BufferPool
from ..storage import pages
from ..telemetry import instruments as tm
from .node import Node, retighten_all
from .positions import deal_positions, query_windows
from .tpbr import TPBR, cheapest_enlargement, pick_split
from .zorder import interleave

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
        self._min_fill_leaf = max(2, self._leaf_fanout * 2 // 5)
        self._min_fill_internal = max(2, self._internal_fanout * 2 // 5)
        self._next_page = 0
        self._leaf_of: Dict[int, Node] = {}
        self.root = self._new_node(level=0)

    # ------------------------------------------------------------------
    # UpdateListener protocol
    # ------------------------------------------------------------------
    def on_advance(self, tnow: int, motions: Columns) -> None:
        self._tnow = max(self._tnow, float(tnow))

    def on_report_batch(self, wave: Wave) -> None:
        """Absorb a wave; the indexed *contents* are contractual, tree shape
        is an implementation detail (only :meth:`validate`'s invariants).

        A re-report whose new motion still lies inside its leaf's bound
        stays in that leaf (the bottom-up update of Lee et al., VLDB 2003):
        see :meth:`_stays_put`.  Every other deleted row leaves its leaf
        *before* anything is retightened or inserted: the wave's rows
        already hold the new motions in the table (a re-report overwrites in
        place, a first report may reuse a retired row), so from then on
        every row in a leaf reads true.  Departures are grouped by leaf and
        removed in one pass per leaf, then the touched leaves — a kept
        row's leaf among them — are condensed together (:meth:`_condense`);
        insertions go in Z-order, so spatially adjacent ones descend into
        the same subtrees back to back.  A wave that dominates the
        population — at least half of it leaves its leaves, or more rows
        go in than stay — is cheaper to absorb by one STR :meth:`bulk_load`
        than by condensing or N choose-leaf descents; kept rows count as
        staying, so a tick that re-reports most objects in place is not
        repacked.
        """
        self._tnow = max(self._tnow, float(wave.tnow))
        doomed, rows = wave.deleted_rows.tolist(), wave.rows.tolist()
        gone = set(doomed)
        if len(gone) < len(doomed) or not gone <= self._leaf_of.keys():
            raise IndexError_(f"rows {doomed} are not all indexed, each once")
        if len(set(rows)) < len(rows) or any(
            row in self._leaf_of and row not in gone for row in rows
        ):
            raise IndexError_(f"rows {rows} are already indexed; delete them first")
        kept = self._stays_put(wave)
        stay = set(wave.rows[kept].tolist())
        movers = wave.rows[~kept]
        survivors = len(self._leaf_of) - len(doomed) + len(stay)
        leaving = len(doomed) - len(stay)
        if (leaving and survivors <= leaving) or movers.shape[0] > survivors:
            kind = "bulk_insert" if movers.shape[0] > survivors else "bulk_delete"
            tm.TPR_REPACKS.labels(kind).inc()
            self.bulk_load()
            return
        if doomed:
            # a dict, not a set: wave order, so tree shape does not hang on id()
            leaves: Dict[Node, List[int]] = {}
            for row in doomed:
                if row in stay:
                    leaves.setdefault(self._leaf_of[row], [])
                else:
                    leaves.setdefault(self._leaf_of.pop(row), []).append(row)
            for leaf, rows_gone in leaves.items():
                leaf.discard(rows_gone)
            self._condense(leaves)
        self._insert_rows(self._zorder_sorted(movers))

    def _stays_put(self, wave: Wave) -> np.ndarray:
        """Which of ``wave.rows`` are re-reports that stay in their leaf.

        A re-report stays when, at the current time, its new position lies
        inside its leaf's bound (closed edges) and its velocity inside the
        bound's edge velocities: then the bound contains the new motion for
        every ``t >= tnow``, with no descent and no split.  Testing velocity
        as well as position keeps the leaf's velocity spread — what makes a
        TPBR grow (Velocity Partitioning, Nguyen et al.) — from widening.
        One vectorised test over the leaves' bounds per wave.
        """
        kept = np.zeros(wave.rows.shape[0], dtype=bool)
        again = np.flatnonzero(wave.supersedes >= 0)
        again = again[wave.rows[again] == wave.deleted_rows[wave.supersedes[again]]]
        if again.shape[0] == 0:
            return kept
        bx1, by1, bvx1, bvy1, bx2, by2, bvx2, bvy2, bt = np.array(
            [self._leaf_of[row].bound.column() for row in wave.rows[again].tolist()]
        ).T
        motions = wave.inserted.take(again)
        x, y = motions.positions_at(self._tnow)
        dt = self._tnow - bt
        kept[again] = (
            (bx1 + bvx1 * dt <= x) & (x <= bx2 + bvx2 * dt)
            & (by1 + bvy1 * dt <= y) & (y <= by2 + bvy2 * dt)
            & (bvx1 <= motions.vx) & (motions.vx <= bvx2)
            & (bvy1 <= motions.vy) & (motions.vy <= bvy2)
        )
        return kept

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._leaf_of)

    @property
    def height(self) -> int:
        return self.root.level + 1

    def node_count(self) -> int:
        return sum(1 for _ in self.root.subtree_nodes())

    def _insert_rows(self, rows: np.ndarray) -> None:
        """Insert table rows one choose-leaf descent at a time, in order."""
        t_from, t_to = self._tnow, self._tnow + self.horizon
        for row, (_, *motion) in zip(rows.tolist(), self.table.columns(rows).tuples()):
            point = TPBR.point(*motion)
            leaf = self.root
            while not leaf.is_leaf:
                leaf = leaf.entries[
                    cheapest_enlargement(leaf.columns(self.table), point, t_from, t_to)
                ]
            leaf.add(row, point)
            self._leaf_of[row] = leaf
            node = leaf.parent
            while node is not None:
                node.grow(point)
                node = node.parent
            if len(leaf.entries) > self._leaf_fanout:
                self._split_upwards(leaf)

    def range_query(self, rect: Rect, qt: float, charge_io: bool = True) -> List[int]:
        """Ids of the objects whose predicted position at ``qt`` lies in
        ``rect`` (closed), in visit order.

        The one-rect reference traversal :meth:`range_positions_batch` is
        tested against.  Visited pages are charged against the buffer pool
        when ``charge_io`` is set.  The containment is *closed* on every
        edge — callers needing half-open semantics re-filter (deliberate
        superset; see :meth:`TPBR.intersects_rect_at`).
        """
        if qt < self._tnow:
            raise IndexError_(
                f"TPR-tree bounds are only valid for t >= {self._tnow}, got {qt}"
            )
        results: List[int] = []
        stack = [self.root]
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
        rb, qts_arr = query_windows(rects, qts)
        n_rects = rb.shape[0]
        if n_rects and float(qts_arr.min()) < self._tnow:
            raise IndexError_(
                f"TPR-tree bounds are only valid for t >= {self._tnow}, "
                f"got {float(qts_arr.min())}"
            )
        leaves: List[np.ndarray] = []
        stack: List[tuple] = [(self.root, np.arange(n_rects))] if n_rects else []
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

        Checks parent pointers, fanout limits, leaf-map consistency, and the
        TPR-tree's bounding invariant: **every node's bound contains every
        motion in its subtree** at the current time and at the horizon end.
        (Parent bounds need not contain child *bounds* — bounds anchored at
        different times have different tightness; each is independently
        sound with respect to the objects beneath it, which is all query
        pruning relies on.)
        """
        seen_rows = set()
        for node in self.root.subtree_nodes():
            if len(node.entries) == 0:
                if node is not self.root:
                    raise IndexError_(f"empty non-root node {node.page_id}")
                continue
            limit = self._leaf_fanout if node.is_leaf else self._internal_fanout
            if len(node.entries) > limit:
                raise IndexError_(f"node {node.page_id} overflows fanout {limit}")
            if node.is_leaf:
                for row in node.entries.tolist():
                    if self._leaf_of.get(row) is not node:
                        raise IndexError_(f"leaf map stale for table row {row}")
                    if row in seen_rows:
                        raise IndexError_(f"table row {row} indexed twice")
                    seen_rows.add(row)
            else:
                if not np.array_equal(node.columns(self.table), node.child_columns()):
                    raise IndexError_(f"node {node.page_id} caches stale child bounds")
                if any(child.parent is not node for child in node.entries):
                    raise IndexError_(f"bad parent pointer under {node.page_id}")
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
        if seen_rows != set(self._leaf_of):
            raise IndexError_("leaf map does not match tree contents")
        if seen_rows != set(self.table.rows().tolist()):
            raise IndexError_("indexed rows are not the table's live rows")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _zorder_sorted(self, rows: np.ndarray) -> np.ndarray:
        """``rows`` ordered by Morton code of current position.

        The quantisation grid spans the rows' own bounding box (the tree
        has no domain of its own), which is all locality needs; ties keep
        arrival order (stable sort)."""
        if rows.shape[0] < 2:
            return rows
        pos = np.stack(self.table.columns(rows).positions_at(self._tnow), axis=1)
        lo = pos.min(axis=0)
        span = pos.max(axis=0) - lo
        span[span == 0.0] = 1.0
        cells = np.clip(((pos - lo) / span * 1024.0).astype(np.int64), 0, 1023)
        codes = interleave(cells[:, 0], cells[:, 1])
        return rows[np.argsort(codes, kind="stable")]

    def bulk_load(self) -> None:
        """Replace the whole tree by a Sort-Tile-Recursive packing of the
        table's live rows.

        Leaves are packed from vertical slabs of the x-sorted rows, each
        slab y-sorted (classic STR); upper levels chunk children in slab
        order.  Every node is bounded afresh at the current time, so
        :meth:`validate`'s containment invariant holds by construction.  All
        previous pages are invalidated — a rebuild rewrites the file in the
        simulated-I/O model.
        """
        self._free(self.root.subtree_nodes())
        self._leaf_of = {}
        rows = self.table.rows()
        n = rows.shape[0]
        if n == 0:
            self.root = self._new_node(level=0)
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
                self._leaf_of.update(dict.fromkeys(leaf.entries.tolist(), leaf))
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
        self.root = nodes[0]

    def _new_node(self, level: int) -> Node:
        node = Node(self._next_page, level, t_ref=self._tnow)
        self._next_page += 1
        return node

    def _touch(self, node: Node, charge_io: bool) -> None:
        if charge_io and self.buffer is not None:
            self.buffer.access(node.page_id)

    def _split_upwards(self, node: Node) -> None:
        t_from, t_to = self._tnow, self._tnow + self.horizon
        while len(node.entries) > (
            self._leaf_fanout if node.is_leaf else self._internal_fanout
        ):
            min_fill = self._min_fill_leaf if node.is_leaf else self._min_fill_internal
            first, second = pick_split(node.columns(self.table), min_fill, t_from, t_to)
            sibling = self._new_node(node.level)
            if node.is_leaf:
                groups = node.entries[first], node.entries[second]
                self._leaf_of.update(dict.fromkeys(groups[1].tolist(), sibling))
            else:
                groups = [node.entries[i] for i in first], [node.entries[i] for i in second]
            node.adopt(groups[0])
            sibling.adopt(groups[1])
            retighten_all([node, sibling], t_from, self.table)
            parent = node.parent
            if parent is None:
                self.root = self._new_node(node.level + 1)
                self.root.set_entries([node, sibling], t_from, self.table)
                return
            parent.add(sibling, sibling.bound)
            ancestor = parent
            while ancestor is not None:
                ancestor.retighten(t_from, self.table)
                ancestor = ancestor.parent
            node = parent

    def _condense(self, leaves: Iterable[Node]) -> None:
        """Handle (possible) underflow after removals from ``leaves``.

        Level by level from the leaves up, every touched node is either
        retightened — once, however many removals happened beneath it, and
        in one :func:`retighten_all` with the rest of its level — or, when
        under-full, dissolved into its parent's orphans; the orphaned rows
        are reinserted afterwards, as in Guttman's R-tree.
        """
        t_from = self._tnow
        orphans: List[np.ndarray] = []
        touched = list(leaves)
        while touched:
            parents: Dict[Node, None] = {}  # insertion-ordered set
            kept: List[Node] = []
            for node in touched:
                parent = node.parent
                min_fill = self._min_fill_leaf if node.is_leaf else self._min_fill_internal
                if parent is not None and len(node.entries) < min_fill:
                    parent.remove(node)
                    orphans.append(node.subtree_rows())
                    self._free(node.subtree_nodes())
                else:
                    kept.append(node)
                if parent is not None:
                    parents[parent] = None
            retighten_all(kept, t_from, self.table)
            touched = list(parents)
        while not self.root.is_leaf and len(self.root.entries) <= 1:
            self._free([self.root])
            if self.root.entries:
                self.root = self.root.entries[0]
                self.root.parent = None
            else:  # every child was dissolved
                self.root = self._new_node(level=0)
        if orphans:
            rows = np.concatenate(orphans)
            for row in rows.tolist():
                del self._leaf_of[row]
            self._insert_rows(rows)

    def _free(self, nodes: Iterable[Node]) -> None:
        """Drop the pages of nodes that left the tree from the buffer pool."""
        if self.buffer is not None:
            for node in nodes:
                self.buffer.invalidate(node.page_id)
