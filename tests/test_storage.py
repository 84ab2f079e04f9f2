"""Tests for the simulated storage layer (page model + buffer pool)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import InvalidParameterError
from repro.storage import pages
from repro.storage.buffer import BufferPool, IOStats


class TestPageModel:
    def test_default_is_4k_10ms_10pct(self):
        assert pages.PAGE_SIZE == 4096
        assert pages.RANDOM_IO_SECONDS == pytest.approx(0.010)
        assert pages.BUFFER_FRACTION == pytest.approx(0.10)

    def test_fanouts_fit_in_page(self):
        assert pages.LEAF_FANOUT * 40 <= pages.PAGE_SIZE
        assert pages.INTERNAL_FANOUT * 72 <= pages.PAGE_SIZE
        assert pages.LEAF_FANOUT > pages.INTERNAL_FANOUT  # leaf entries are smaller

    # The page model is three constants; the bounds its constructor used to
    # enforce are checked on them here.
    def test_small_page_raises(self):
        assert pages.PAGE_SIZE >= 256
        assert min(pages.LEAF_FANOUT, pages.INTERNAL_FANOUT) >= 4

    def test_invalid_fractions(self):
        assert 0.0 <= pages.BUFFER_FRACTION <= 1.0
        assert pages.RANDOM_IO_SECONDS >= 0.0

    def test_dataset_pages_rounds_up(self):
        f = pages.LEAF_FANOUT
        assert pages.dataset_pages(f) == 1
        assert pages.dataset_pages(f + 1) == 2
        assert pages.dataset_pages(0) == 1  # at least one page

    def test_buffer_pages_is_10_percent(self):
        n = pages.LEAF_FANOUT * 100  # exactly 100 pages
        assert pages.buffer_pages(n) == 10

    def test_buffer_pages_minimum_one(self):
        assert pages.buffer_pages(1) == 1

    def test_negative_objects_raise(self):
        with pytest.raises(InvalidParameterError):
            pages.dataset_pages(-1)


class TestBufferPool:
    def test_miss_then_hit(self):
        pool = BufferPool(capacity_pages=2)
        assert pool.access(1) is False
        assert pool.access(1) is True
        assert pool.stats.hits == 1
        assert pool.stats.misses == 1

    def test_lru_eviction_order(self):
        pool = BufferPool(capacity_pages=2)
        pool.access(1)
        pool.access(2)
        pool.access(1)  # 1 becomes most-recent
        pool.access(3)  # evicts 2
        assert pool.contains(1)
        assert not pool.contains(2)
        assert pool.contains(3)

    def test_capacity_respected(self):
        pool = BufferPool(capacity_pages=3)
        for page in range(10):
            pool.access(page)
        assert len(pool) == 3

    def test_invalidate(self):
        pool = BufferPool(capacity_pages=4)
        pool.access(7)
        pool.invalidate(7)
        assert not pool.contains(7)
        assert pool.access(7) is False  # now a miss again

    def test_invalidate_absent_is_noop(self):
        BufferPool(capacity_pages=1).invalidate(99)

    def test_clear(self):
        pool = BufferPool(capacity_pages=4)
        pool.access(1)
        pool.clear()
        assert len(pool) == 0

    def test_charged_seconds(self):
        pool = BufferPool(capacity_pages=1)
        pool.access(1)
        pool.access(2)
        pool.access(2)
        assert pool.charged_seconds() == pytest.approx(2 * pages.RANDOM_IO_SECONDS)

    def test_reset_stats_returns_previous(self):
        pool = BufferPool(capacity_pages=1)
        pool.access(1)
        old = pool.reset_stats()
        assert old.misses == 1
        assert pool.stats.misses == 0

    def test_resize_shrink_evicts(self):
        pool = BufferPool(capacity_pages=4)
        for page in range(4):
            pool.access(page)
        pool.resize(2)
        assert len(pool) == 2
        assert pool.contains(3) and pool.contains(2)  # most recent survive

    def test_resize_invalid(self):
        with pytest.raises(InvalidParameterError):
            BufferPool(capacity_pages=1).resize(0)

    def test_invalid_construction(self):
        with pytest.raises(InvalidParameterError):
            BufferPool(capacity_pages=0)

    def test_io_stats_ratios(self):
        stats = IOStats(hits=3, misses=1)
        assert stats.accesses == 4
        assert stats.hit_ratio == pytest.approx(0.75)
        assert IOStats().hit_ratio == 0.0

    def test_resize_shrink_evicts_in_lru_order(self):
        pool = BufferPool(capacity_pages=4)
        for page in range(4):
            pool.access(page)
        pool.access(0)  # 0 becomes most-recent; LRU order is now 1, 2, 3, 0
        pool.resize(2)
        assert not pool.contains(1) and not pool.contains(2)
        assert pool.contains(3) and pool.contains(0)

    def test_resize_grow_and_same_keep_residents(self):
        pool = BufferPool(capacity_pages=2)
        pool.access(1)
        pool.access(2)
        pool.resize(2)
        pool.resize(5)
        assert pool.contains(1) and pool.contains(2)
        assert len(pool) == 2

    def test_hit_ratio_with_zero_accesses_is_zero(self):
        pool = BufferPool(capacity_pages=1)
        assert pool.stats.hit_ratio == 0.0  # no division-by-zero

    def test_injected_fault_behaves_like_a_failed_read(self):
        from repro.core.errors import TransientIOError
        from repro.reliability.faults import FaultInjector

        faults = FaultInjector()
        pool = BufferPool(capacity_pages=4, faults=faults)
        pool.access(1)
        faults.inject_error("buffer.io")
        with pytest.raises(TransientIOError):
            pool.access(2)
        # the failed read neither counted as a miss nor became resident
        assert not pool.contains(2)
        assert pool.stats.misses == 1
        # ... and a hit never touches the device, so it cannot fault
        faults.inject_error("buffer.io")
        assert pool.access(1) is True
        faults.clear()
        assert pool.access(2) is False  # retry succeeds once the fault clears

    @given(st.lists(st.integers(0, 5), max_size=60), st.integers(1, 4))
    def test_working_set_smaller_than_capacity_always_hits_after_first(
        self, accesses, capacity
    ):
        """If distinct pages <= capacity, each page misses exactly once."""
        distinct = set(accesses)
        if len(distinct) > capacity:
            return
        pool = BufferPool(capacity_pages=capacity)
        for page in accesses:
            pool.access(page)
        assert pool.stats.misses == len(distinct)
