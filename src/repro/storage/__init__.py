"""Simulated storage: page model and LRU buffer pool with I/O accounting."""

from . import pages
from .buffer import BufferPool, IOStats

__all__ = ["BufferPool", "IOStats", "pages"]
