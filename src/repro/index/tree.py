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
* Insertion descends by minimum enlargement of the *integral* bounding area
  over the horizon window ``[t_now, t_now + H]`` and splits overflowing
  nodes with the axis-sweep heuristic of :mod:`repro.index.split`.
* Deletion locates leaves through an object-id -> leaf map (a standard
  implementation shortcut that avoids float-equality MBR searches; I/O
  accounting is unaffected because only queries are charged).
* Underflowing nodes are condensed: the node is removed and its remaining
  entries reinserted, as in Guttman's R-tree.  A wave of deletions is
  condensed once, leaf-grouped and level by level (:meth:`TPRTree._condense`).
* Every node caches its entries as numpy columns (:meth:`Node.columns`):
  leaf bounds, choose-subtree scores and the batched traversal are array
  expressions over them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import IndexError_, InvalidParameterError
from ..core.geometry import Rect
from ..motion.model import Motion
from ..motion.updates import DeleteUpdate, InsertUpdate, UpdateListener
from ..storage.buffer import BufferPool
from ..storage.pages import DEFAULT_PAGE_MODEL, PageModel
from ..telemetry import instruments as tm
from .node import Node, motion_columns
from .positions import pack_positions, query_windows
from .split import pick_split
from .tpbr import cheapest_enlargement
from .zorder import interleave

__all__ = ["TPRTree"]


class TPRTree(UpdateListener):
    """Disk-page-shaped TPR-tree with simulated I/O accounting."""

    def __init__(
        self,
        horizon: float,
        page_model: PageModel = DEFAULT_PAGE_MODEL,
        buffer_pool: Optional[BufferPool] = None,
        tnow: int = 0,
        fanout_override: Optional[int] = None,
    ) -> None:
        if horizon <= 0:
            raise InvalidParameterError(f"horizon must be positive, got {horizon}")
        self.horizon = horizon
        self.page_model = page_model
        self.buffer = buffer_pool
        self._tnow = float(tnow)
        if fanout_override is not None:
            if fanout_override < 4:
                raise InvalidParameterError("fanout_override must be >= 4")
            self._leaf_fanout = fanout_override
            self._internal_fanout = fanout_override
        else:
            self._leaf_fanout = page_model.leaf_fanout
            self._internal_fanout = page_model.internal_fanout
        self._min_fill_leaf = max(2, self._leaf_fanout * 2 // 5)
        self._min_fill_internal = max(2, self._internal_fanout * 2 // 5)
        self._next_page = 0
        self._leaf_of: Dict[int, Node] = {}
        # Structure epoch: bumped on any mutation of contents or shape;
        # result-reuse caches upstream key on it.
        self._epoch = 0
        self.root = self._new_node(level=0)

    # ------------------------------------------------------------------
    # UpdateListener protocol
    # ------------------------------------------------------------------
    def on_insert(self, update: InsertUpdate) -> None:
        self._tnow = max(self._tnow, float(update.tnow))
        self.insert(update.motion)

    def on_delete(self, update: DeleteUpdate) -> None:
        self._tnow = max(self._tnow, float(update.tnow))
        self.delete(update.motion)

    def on_advance(self, tnow: int) -> None:
        self._tnow = max(self._tnow, float(tnow))

    def on_insert_batch(self, updates: Sequence[InsertUpdate]) -> None:
        """Insert a wave; the indexed *contents* are exactly the per-update
        result, but tree shape is an implementation detail (only
        :meth:`validate`'s invariants are contractual).

        A wave that outnumbers the current population is cheaper to absorb
        by rebuilding the whole tree with an STR bulk pack than by N
        choose-leaf descents; smaller waves are inserted incrementally in
        Z-order, so spatially adjacent insertions descend into the same
        subtrees back to back."""
        if not updates:
            return
        self._tnow = max(self._tnow, float(max(u.tnow for u in updates)))
        seen = set()
        for update in updates:
            oid = update.motion.oid
            if oid in self._leaf_of or oid in seen:
                raise IndexError_(
                    f"object {oid} already indexed; delete its old motion first"
                )
            seen.add(oid)
        if len(updates) > len(self._leaf_of):
            tm.TPR_REPACKS.labels("bulk_insert").inc()
            self.bulk_load(self.all_motions() + [u.motion for u in updates])
        else:
            for update in self._zorder_sorted(updates):
                self.insert(update.motion)

    def on_delete_batch(self, updates: Sequence[DeleteUpdate]) -> None:
        """Delete a wave.  Its deletions are grouped by leaf and removed in
        one pass per leaf, then the touched nodes are condensed together
        (:meth:`_condense`); when the wave covers at least half the
        population the survivors are simply repacked (condensing would
        reinsert most of the tree anyway)."""
        if not updates:
            return
        self._tnow = max(self._tnow, float(max(u.tnow for u in updates)))
        doomed = set()
        for update in updates:
            oid = update.motion.oid
            if oid not in self._leaf_of or oid in doomed:
                raise IndexError_(f"object {oid} is not indexed")
            doomed.add(oid)
        if 2 * len(updates) >= len(self._leaf_of):
            tm.TPR_REPACKS.labels("bulk_delete").inc()
            self.bulk_load(
                [m for m in self.all_motions() if m.oid not in doomed]
            )
            return
        self._epoch += 1
        # a dict, not a set: wave order, so tree shape does not hang on id()
        leaves = {self._leaf_of.pop(u.motion.oid): None for u in updates}
        for leaf in leaves:
            leaf.discard(doomed)
        self._condense(leaves)

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

    @property
    def epoch(self) -> int:
        """Monotone counter identifying the current tree contents/shape."""
        return self._epoch

    def insert(self, motion: Motion) -> None:
        """Insert a motion; the object id must not already be present."""
        if motion.oid in self._leaf_of:
            raise IndexError_(
                f"object {motion.oid} already indexed; delete its old motion first"
            )
        self._epoch += 1
        leaf = self._choose_leaf(motion)
        leaf.add(motion)
        self._leaf_of[motion.oid] = leaf
        node = leaf.parent
        while node is not None:
            node.grow(motion)
            node = node.parent
        if len(leaf.entries) > self._leaf_fanout:
            self._split_upwards(leaf)

    def delete(self, motion: Motion) -> None:
        """Remove the indexed motion of ``motion.oid``."""
        leaf = self._leaf_of.pop(motion.oid, None)
        if leaf is None:
            raise IndexError_(f"object {motion.oid} is not indexed")
        self._epoch += 1
        leaf.discard({motion.oid})
        self._condense([leaf])

    def range_query(self, rect: Rect, qt: float, charge_io: bool = True) -> List[Motion]:
        """Objects whose predicted position at ``qt`` lies in ``rect`` (closed).

        Visited pages are charged against the buffer pool when ``charge_io``
        is set.  The returned containment is *closed* on every edge — callers
        needing half-open semantics re-filter (deliberate superset; see
        :meth:`TPBR.intersects_rect_at`).
        """
        if qt < self._tnow:
            raise IndexError_(
                f"TPR-tree bounds are only valid for t >= {self._tnow}, got {qt}"
            )
        results: List[Motion] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            self._touch(node, charge_io)
            if node.is_leaf:
                for motion in node.entries:
                    x, y = motion.position_at(qt)
                    if rect.x1 <= x <= rect.x2 and rect.y1 <= y <= rect.y2:
                        results.append(motion)
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
        timestamp are ``px/py[offsets[r]:offsets[r + 1]]`` (see
        :mod:`repro.index.positions`).  All rects are answered in a single
        shared traversal: each visited page is touched (and charged) once
        for the whole batch, and every node carries the subset of rects
        whose query window still intersects its bound — per-rect membership
        masks instead of N independent walks.

        Per-rect results are identical to ``range_query(rect, qt)``, in the
        same visit order: a stack DFS restricted to the subset of nodes one
        rect intersects visits them in the same order as that rect's own
        stack DFS (same child push order), and the leaf containment test is
        the same closed comparison on elementwise-identical extrapolated
        positions.
        """
        rb, qts_arr = query_windows(rects, qts)
        n_rects = rb.shape[0]
        if n_rects and float(qts_arr.min()) < self._tnow:
            raise IndexError_(
                f"TPR-tree bounds are only valid for t >= {self._tnow}, "
                f"got {float(qts_arr.min())}"
            )
        hit_rect: List[np.ndarray] = []
        hit_x: List[np.ndarray] = []
        hit_y: List[np.ndarray] = []
        stack: List[tuple] = [(self.root, np.arange(n_rects))] if n_rects else []
        while stack:
            node, active = stack.pop()
            self._touch(node, charge_io)
            if node.is_leaf:
                if not node.entries:
                    continue
                x0, y0, vx, vy, t_ref = node.columns()
                # One (rect, entry) broadcast per leaf: each row extrapolates
                # to its own rect's timestamp, closed containment.
                dt = qts_arr[active][:, None] - t_ref
                px = x0 + dt * vx
                py = y0 + dt * vy
                window = rb[active]
                row, col = np.nonzero(
                    (window[:, 0:1] <= px)
                    & (px <= window[:, 2:3])
                    & (window[:, 1:2] <= py)
                    & (py <= window[:, 3:4])
                )
                if row.size:
                    hit_rect.append(active[row])
                    hit_x.append(px[row, col])
                    hit_y.append(py[row, col])
            else:
                bx1, by1, bvx1, bvy1, bx2, by2, bvx2, bvy2, bt = node.columns()
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
        return pack_positions(hit_rect, hit_x, hit_y, n_rects)

    def all_motions(self) -> List[Motion]:
        return list(self.root.iter_subtree_motions())

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
        seen_oids = set()
        t_checks = (self._tnow, self._tnow + self.horizon)
        for node in self.root.subtree_nodes():
            if node is not self.root and len(node.entries) == 0:
                raise IndexError_(f"empty non-root node {node.page_id}")
            limit = self._leaf_fanout if node.is_leaf else self._internal_fanout
            if len(node.entries) > limit:
                raise IndexError_(f"node {node.page_id} overflows fanout {limit}")
            if not np.array_equal(node.columns(), node.fresh_columns()):
                raise IndexError_(f"node {node.page_id} caches stale columns")
            for entry in node.entries:
                if isinstance(entry, Node):
                    if entry.parent is not node:
                        raise IndexError_(f"bad parent pointer under {node.page_id}")
                else:
                    if self._leaf_of.get(entry.oid) is not node:
                        raise IndexError_(f"leaf map stale for object {entry.oid}")
                    if entry.oid in seen_oids:
                        raise IndexError_(f"object {entry.oid} indexed twice")
                    seen_oids.add(entry.oid)
            for motion in node.iter_subtree_motions():
                for t in t_checks:
                    x, y = motion.position_at(t)
                    outer = node.bound.rect_at(t)
                    if not (
                        outer.x1 - 1e-6 <= x <= outer.x2 + 1e-6
                        and outer.y1 - 1e-6 <= y <= outer.y2 + 1e-6
                    ):
                        raise IndexError_(
                            f"object {motion.oid} escapes node {node.page_id} "
                            f"bound at t={t}"
                        )
        if seen_oids != set(self._leaf_of):
            raise IndexError_("leaf map does not match tree contents")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _zorder_sorted(self, updates: Sequence[InsertUpdate]) -> List[InsertUpdate]:
        """The wave ordered by Morton code of current position.

        The quantisation grid spans the wave's own bounding box (the tree
        has no domain of its own), which is all locality needs; ties keep
        arrival order (stable sort)."""
        if len(updates) < 2:
            return list(updates)
        pos = np.array([u.motion.position_at(self._tnow) for u in updates])
        lo = pos.min(axis=0)
        span = pos.max(axis=0) - lo
        span[span == 0.0] = 1.0
        cells = np.clip(((pos - lo) / span * 1024.0).astype(np.int64), 0, 1023)
        codes = interleave(cells[:, 0], cells[:, 1])
        order = np.argsort(codes, kind="stable")
        return [updates[i] for i in order]

    def bulk_load(self, motions: List[Motion]) -> None:
        """Replace the whole tree by a Sort-Tile-Recursive packing of ``motions``.

        Leaves are packed from vertical slabs of the x-sorted wave, each
        slab y-sorted (classic STR); upper levels chunk children in slab
        order.  Every node is bounded afresh at the current time, so
        :meth:`validate`'s containment invariant holds by construction.  All
        previous pages are invalidated — a rebuild rewrites the file in the
        simulated-I/O model.
        """
        self._epoch += 1
        self._free(self.root.subtree_nodes())
        self._leaf_of = {}
        if not motions:
            self.root = self._new_node(level=0)
            return
        cols = motion_columns(motions)
        px, py = cols[0:2] + (self._tnow - cols[4]) * cols[2:4]
        per_leaf = self._leaf_fanout
        n = len(motions)
        n_leaves = -(-n // per_leaf)
        n_slabs = int(np.ceil(np.sqrt(n_leaves)))
        slab_pts = -(-n // n_slabs)
        order_x = np.argsort(px, kind="stable")
        nodes: List[Node] = []
        for s in range(0, n, slab_pts):
            slab = order_x[s : s + slab_pts]
            slab = slab[np.argsort(py[slab], kind="stable")]
            for c in range(0, len(slab), per_leaf):
                members = slab[c : c + per_leaf]
                leaf = self._new_node(level=0)
                leaf.set_entries(
                    [motions[i] for i in members],
                    self._tnow,
                    np.take(cols, members, axis=1),  # row-contiguous
                )
                for motion in leaf.entries:
                    self._leaf_of[motion.oid] = leaf
                nodes.append(leaf)
        level = 1
        while len(nodes) > 1:
            parents = []
            for c in range(0, len(nodes), self._internal_fanout):
                parent = self._new_node(level)
                parent.set_entries(nodes[c : c + self._internal_fanout], self._tnow)
                parents.append(parent)
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

    def _window(self):
        return self._tnow, self._tnow + self.horizon

    def _choose_leaf(self, motion: Motion) -> Node:
        t_from, t_to = self._window()
        node = self.root
        while not node.is_leaf:
            node = node.entries[
                cheapest_enlargement(node.columns(), motion, t_from, t_to)
            ]
        return node

    def _split_upwards(self, node: Node) -> None:
        t_from, t_to = self._window()
        while len(node.entries) > (
            self._leaf_fanout if node.is_leaf else self._internal_fanout
        ):
            min_fill = self._min_fill_leaf if node.is_leaf else self._min_fill_internal
            group_a, group_b = pick_split(node.entries, min_fill, t_from, t_to)
            sibling = self._new_node(node.level)
            node.set_entries(group_a, t_from)
            sibling.set_entries(group_b, t_from)
            if node.is_leaf:
                for entry in group_b:
                    self._leaf_of[entry.oid] = sibling
            parent = node.parent
            if parent is None:
                self.root = self._new_node(node.level + 1)
                self.root.set_entries([node, sibling], t_from)
                return
            parent.add(sibling)
            ancestor = parent
            while ancestor is not None:
                ancestor.retighten(t_from)
                ancestor = ancestor.parent
            node = parent

    def _condense(self, leaves: Iterable[Node]) -> None:
        """Handle (possible) underflow after removals from ``leaves``.

        Level by level from the leaves up, every touched node is either
        retightened — once, however many removals happened beneath it — or,
        when under-full, dissolved into its parent's orphans; the orphaned
        motions are reinserted afterwards, as in Guttman's R-tree.
        """
        t_from = self._tnow
        orphans: List[Motion] = []
        touched = list(leaves)
        while touched:
            parents: Dict[Node, None] = {}  # insertion-ordered set
            for node in touched:
                parent = node.parent
                min_fill = self._min_fill_leaf if node.is_leaf else self._min_fill_internal
                if parent is not None and len(node.entries) < min_fill:
                    parent.remove(node)
                    orphans.extend(node.iter_subtree_motions())
                    self._free(node.subtree_nodes())
                else:
                    node.retighten(t_from)
                if parent is not None:
                    parents[parent] = None
            touched = list(parents)
        while not self.root.is_leaf and len(self.root.entries) <= 1:
            self._free([self.root])
            if self.root.entries:
                self.root = self.root.entries[0]
                self.root.parent = None
            else:  # every child was dissolved
                self.root = self._new_node(level=0)
        for motion in orphans:
            del self._leaf_of[motion.oid]
            self.insert(motion)

    def _free(self, nodes: Iterable[Node]) -> None:
        """Drop the pages of nodes that left the tree from the buffer pool."""
        if self.buffer is not None:
            for node in nodes:
                self.buffer.invalidate(node.page_id)
