"""Disk-page cost model.

The paper charges the FR method for the disk I/O its refinement step performs
against the TPR-tree (4 KB pages, 10 ms per random access, a buffer of 10 %
of the dataset size).  We reproduce that accounting with an explicit page
model: tree nodes are sized to pages, and the byte layout below determines
node fanout exactly as a disk-resident implementation would.  The three
figures are the paper's Table 1 values and nothing sets them otherwise, so
they are module constants (tests monkeypatch the fanouts, read when an
index is built).
"""

from __future__ import annotations

from ..core.errors import InvalidParameterError

__all__ = [
    "PAGE_SIZE",
    "RANDOM_IO_SECONDS",
    "BUFFER_FRACTION",
    "LEAF_FANOUT",
    "INTERNAL_FANOUT",
    "dataset_pages",
    "buffer_pages",
]

PAGE_SIZE = 4096  # bytes
RANDOM_IO_SECONDS = 0.010  # charged per buffer miss
BUFFER_FRACTION = 0.10  # of the dataset's pages

# Byte layout assumed for TPR-tree entries (matching common disk layouts):
#   leaf entry:     object id (8) + x, y, vx, vy (4 doubles)            = 40 B
#   internal entry: child page id (8) + TP bounding rectangle
#                   (x1, y1, x2, y2, vx1, vy1, vx2, vy2 as doubles)     = 72 B
_LEAF_ENTRY_BYTES = 8 + 4 * 8
_INTERNAL_ENTRY_BYTES = 8 + 8 * 8
_NODE_HEADER_BYTES = 32  # level, count, reference time, parent pointer

# Maximum object entries per leaf page, and child entries per internal page.
LEAF_FANOUT = (PAGE_SIZE - _NODE_HEADER_BYTES) // _LEAF_ENTRY_BYTES
INTERNAL_FANOUT = (PAGE_SIZE - _NODE_HEADER_BYTES) // _INTERNAL_ENTRY_BYTES


def dataset_pages(n_objects: int) -> int:
    """Approximate page count of a dataset of ``n_objects`` (leaf level)."""
    if n_objects < 0:
        raise InvalidParameterError(f"n_objects must be >= 0, got {n_objects}")
    return max(1, -(-n_objects // LEAF_FANOUT))


def buffer_pages(n_objects: int) -> int:
    """Buffer pool capacity: ``BUFFER_FRACTION`` of the dataset size."""
    return max(1, int(BUFFER_FRACTION * dataset_pages(n_objects)))
