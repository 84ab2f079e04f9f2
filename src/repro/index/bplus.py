"""A disk-page B+-tree over integer keys.

The substrate for the B^x-tree (:mod:`repro.index.bx`): a classic B+-tree
whose nodes are sized to disk pages (the same :mod:`repro.storage.pages`
accounting as the TPR-tree) and whose leaves are chained for
range scans.  Keys are non-negative integers (Z-order codes prefixed with a
partition label); duplicate keys are allowed — each leaf slot stores a
``(key, value)`` pair and deletion removes one matching pair.

Like the TPR-tree, only *queries* are charged against the buffer pool;
update I/O is excluded per Section 4 of the paper.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Callable, List, Optional, Tuple

from ..core.errors import IndexError_, InvalidParameterError
from ..storage.buffer import BufferPool

__all__ = ["BPlusTree"]


class _Node:
    __slots__ = (
        "page_id", "is_leaf", "keys", "children", "values",
        "next_leaf", "prev_leaf", "parent",
    )

    def __init__(self, page_id: int, is_leaf: bool) -> None:
        self.page_id = page_id
        self.is_leaf = is_leaf
        self.keys: List[int] = []
        self.children: List["_Node"] = []  # internal only
        self.values: List[Any] = []  # leaf only, parallel to keys
        self.next_leaf: Optional["_Node"] = None
        self.prev_leaf: Optional["_Node"] = None
        self.parent: Optional["_Node"] = None


class BPlusTree:
    """Integer-keyed B+-tree with duplicate support and leaf chaining."""

    def __init__(
        self,
        fanout: int = 64,
        buffer_pool: Optional[BufferPool] = None,
    ) -> None:
        if fanout < 4:
            raise InvalidParameterError(f"fanout must be >= 4, got {fanout}")
        self.fanout = fanout
        self.buffer = buffer_pool
        self._next_page = 0
        self.root = self._new_node(is_leaf=True)
        self._size = 0

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        h, node = 1, self.root
        while not node.is_leaf:
            node = node.children[0]
            h += 1
        return h

    def _new_node(self, is_leaf: bool) -> _Node:
        node = _Node(self._next_page, is_leaf)
        self._next_page += 1
        return node

    def _touch(self, node: _Node, charge_io: bool) -> None:
        if charge_io and self.buffer is not None:
            self.buffer.access(node.page_id)

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _find_leaf(self, key: int, charge_io: bool = False) -> _Node:
        node = self.root
        self._touch(node, charge_io)
        while not node.is_leaf:
            # Separator keys[i] splits children[i] (keys <= sep) from
            # children[i+1] (keys >= sep); descending with bisect_left lands
            # on the LEFTMOST leaf that can hold ``key``, which search,
            # range scans and deletes rely on when duplicates of a
            # separator straddle the boundary.
            idx = bisect_left(node.keys, key)
            node = node.children[idx]
            self._touch(node, charge_io)
        return node

    def search(self, key: int) -> List[Any]:
        """All values stored under ``key`` (duplicates in insertion order)."""
        leaf = self._find_leaf(key)
        out: List[Any] = []
        while leaf is not None:
            lo = bisect_left(leaf.keys, key)
            if lo == len(leaf.keys):
                leaf = leaf.next_leaf
                continue
            hi = bisect_right(leaf.keys, key)
            out.extend(leaf.values[lo:hi])
            if hi < len(leaf.keys):
                break
            leaf = leaf.next_leaf
            if leaf is not None and (not leaf.keys or leaf.keys[0] > key):
                break
        return out

    def range_scan(
        self, lo: int, hi: int, charge_io: bool = True
    ) -> List[Tuple[int, Any]]:
        """All ``(key, value)`` pairs with ``lo <= key <= hi`` in key order."""
        if hi < lo:
            return []
        leaf = self._find_leaf(lo, charge_io)
        out: List[Tuple[int, Any]] = []
        while leaf is not None:
            start = bisect_left(leaf.keys, lo)
            for idx in range(start, len(leaf.keys)):
                if leaf.keys[idx] > hi:
                    return out
                out.append((leaf.keys[idx], leaf.values[idx]))
            leaf = leaf.next_leaf
            if leaf is not None:
                self._touch(leaf, charge_io)
        return out

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def insert(self, key: int, value: Any) -> None:
        leaf = self._find_leaf(key)
        idx = bisect_right(leaf.keys, key)
        leaf.keys.insert(idx, key)
        leaf.values.insert(idx, value)
        self._size += 1
        if len(leaf.keys) > self.fanout:
            self._split(leaf)

    def _split(self, node: _Node) -> None:
        mid = len(node.keys) // 2
        sibling = self._new_node(node.is_leaf)
        if node.is_leaf:
            sibling.keys = node.keys[mid:]
            sibling.values = node.values[mid:]
            node.keys = node.keys[:mid]
            node.values = node.values[:mid]
            sibling.next_leaf = node.next_leaf
            if sibling.next_leaf is not None:
                sibling.next_leaf.prev_leaf = sibling
            sibling.prev_leaf = node
            node.next_leaf = sibling
            sep = sibling.keys[0]
        else:
            # The middle key moves up; children split around it.
            sep = node.keys[mid]
            sibling.keys = node.keys[mid + 1 :]
            sibling.children = node.children[mid + 1 :]
            for child in sibling.children:
                child.parent = sibling
            node.keys = node.keys[:mid]
            node.children = node.children[: mid + 1]
        parent = node.parent
        if parent is None:
            new_root = self._new_node(is_leaf=False)
            new_root.keys = [sep]
            new_root.children = [node, sibling]
            node.parent = new_root
            sibling.parent = new_root
            self.root = new_root
            return
        idx = parent.children.index(node)
        parent.keys.insert(idx, sep)
        parent.children.insert(idx + 1, sibling)
        sibling.parent = parent
        if len(parent.children) > self.fanout:
            self._split(parent)

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------
    def delete(self, key: int, match: Optional[Callable[[Any], bool]] = None) -> Any:
        """Remove (and return) one value under ``key``.

        With ``match`` given, removes the first value satisfying it; raises
        :class:`~repro.core.errors.IndexError_` when nothing matches.
        Underflow is handled lazily (nodes are merged only when they empty
        completely), which keeps the structure valid — range scans rely on
        key order and leaf chaining, not on fill factors.
        """
        leaf = self._find_leaf(key)
        while leaf is not None:
            lo = bisect_left(leaf.keys, key)
            found_any = False
            for idx in range(lo, len(leaf.keys)):
                if leaf.keys[idx] != key:
                    break
                found_any = True
                if match is None or match(leaf.values[idx]):
                    value = leaf.values.pop(idx)
                    leaf.keys.pop(idx)
                    self._size -= 1
                    if not leaf.keys:
                        self._remove_empty(leaf)
                    return value
            if lo < len(leaf.keys) and not found_any:
                break
            leaf = leaf.next_leaf
            if leaf is not None and leaf.keys and leaf.keys[0] > key:
                break
        raise IndexError_(f"no matching entry under key {key}")

    def _remove_empty(self, node: _Node) -> None:
        parent = node.parent
        if parent is None:
            return  # empty root stays (tree may refill)
        if node.is_leaf:
            if node.prev_leaf is not None:
                node.prev_leaf.next_leaf = node.next_leaf
            if node.next_leaf is not None:
                node.next_leaf.prev_leaf = node.prev_leaf
        idx = parent.children.index(node)
        parent.children.pop(idx)
        if parent.keys:
            # Drop the separator adjacent to the removed child.
            parent.keys.pop(max(idx - 1, 0))
        if self.buffer is not None:
            self.buffer.invalidate(node.page_id)
        if not parent.children:
            if parent is self.root:
                # The tree emptied out completely: restart from a leaf root.
                if self.buffer is not None:
                    self.buffer.invalidate(parent.page_id)
                self.root = self._new_node(is_leaf=True)
            else:
                self._remove_empty(parent)
            return
        if parent is self.root and len(parent.children) == 1:
            self.root = parent.children[0]
            self.root.parent = None
            if self.buffer is not None:
                self.buffer.invalidate(parent.page_id)

    def _leftmost_leaf(self) -> _Node:
        node = self.root
        while not node.is_leaf:
            node = node.children[0]
        return node

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Structural invariants: key order, chain coverage, parent links."""
        # Leaf chain yields all keys in nondecreasing order.
        keys: List[int] = []
        leaf = self._leftmost_leaf()
        while leaf is not None:
            if leaf.keys != sorted(leaf.keys):
                raise IndexError_("leaf keys out of order")
            keys.extend(leaf.keys)
            leaf = leaf.next_leaf
        if keys != sorted(keys):
            raise IndexError_("leaf chain out of global order")
        if len(keys) != self._size:
            raise IndexError_(f"size {self._size} != chained keys {len(keys)}")
        # Parent pointers and separator sanity.
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                if len(node.children) != len(node.keys) + 1:
                    raise IndexError_("separator/children count mismatch")
                for child in node.children:
                    if child.parent is not node:
                        raise IndexError_("bad parent pointer")
                    stack.append(child)
