"""Tests for density-histogram maintenance (Section 5.1)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import HorizonError, InvalidParameterError
from repro.core.geometry import Rect
from repro.histogram.density_histogram import DensityHistogram
from repro.motion.model import Motion
from repro.motion.table import ObjectTable

DOMAIN = Rect(0.0, 0.0, 100.0, 100.0)


def make_hist(m=10, horizon=5, tnow=0):
    return DensityHistogram(DOMAIN, m=m, horizon=horizon, tnow=tnow)


def brute_counts(table: ObjectTable, hist: DensityHistogram, qt: int) -> np.ndarray:
    counts = np.zeros((hist.m, hist.m), dtype=int)
    for _oid, x, y in table.positions_at(qt):
        if DOMAIN.contains_point(x, y):
            i, j = hist.cell_of(x, y)
            counts[i, j] += 1
    return counts


class TestGeometryHelpers:
    def test_cell_edge(self):
        assert make_hist(m=10).cell_edge == pytest.approx(10.0)

    def test_cell_rect(self):
        hist = make_hist(m=10)
        assert hist.cell_rect(0, 0) == Rect(0, 0, 10, 10)
        assert hist.cell_rect(2, 3) == Rect(20, 30, 30, 40)

    def test_cell_of(self):
        hist = make_hist(m=10)
        assert hist.cell_of(0.0, 0.0) == (0, 0)
        assert hist.cell_of(99.99, 0.5) == (9, 0)
        assert hist.cell_of(10.0, 10.0) == (1, 1)  # cell low edges inclusive

    def test_cell_of_outside_raises(self):
        with pytest.raises(InvalidParameterError):
            make_hist().cell_of(100.0, 0.0)  # domain is half-open

    def test_invalid_construction(self):
        with pytest.raises(InvalidParameterError):
            DensityHistogram(DOMAIN, m=0, horizon=5)
        with pytest.raises(InvalidParameterError):
            DensityHistogram(DOMAIN, m=5, horizon=-1)

    def test_memory_bytes(self):
        hist = make_hist(m=10, horizon=5)
        assert hist.memory_bytes() == 6 * 10 * 10 * 4


class TestMaintenance:
    def test_insert_counts_whole_trajectory(self):
        hist = make_hist(m=10, horizon=5)
        table = ObjectTable()
        table.add_listener(hist)
        table.report(0, 5.0, 5.0, 10.0, 0.0)  # crosses one cell per timestamp
        for qt in range(6):
            counts = hist.counts_at(qt)
            assert counts.sum() == 1
            i, j = hist.cell_of(5.0 + 10.0 * qt, 5.0) if qt < 10 else (None, None)
            assert counts[i, j] == 1

    def test_object_leaving_domain_drops_out(self):
        hist = make_hist(m=10, horizon=5)
        table = ObjectTable()
        table.add_listener(hist)
        table.report(0, 95.0, 5.0, 10.0, 0.0)  # exits after t=0
        assert hist.counts_at(0).sum() == 1
        assert hist.counts_at(1).sum() == 0

    def test_delete_cancels_insert(self):
        hist = make_hist(m=10, horizon=5)
        table = ObjectTable()
        table.add_listener(hist)
        table.report(0, 5.0, 5.0, 1.0, 1.0)
        table.retire(0)
        for qt in range(6):
            assert hist.counts_at(qt).sum() == 0

    def test_rereport_replaces_trajectory(self):
        hist = make_hist(m=10, horizon=5)
        table = ObjectTable()
        table.add_listener(hist)
        table.report(0, 5.0, 5.0, 10.0, 0.0)
        table.report(0, 55.0, 55.0, 0.0, 0.0)  # same time: delete + insert
        counts = hist.counts_at(3)
        assert counts.sum() == 1
        assert counts[hist.cell_of(55.0, 55.0)] == 1

    @given(st.integers(1, 30), st.integers(0, 10_000), st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_counts_match_bruteforce(self, n, seed, qt):
        gen = np.random.default_rng(seed)
        hist = make_hist(m=10, horizon=5)
        table = ObjectTable()
        table.add_listener(hist)
        for oid in range(n):
            table.report(
                oid,
                float(gen.uniform(0, 100)),
                float(gen.uniform(0, 100)),
                float(gen.uniform(-3, 3)),
                float(gen.uniform(-3, 3)),
            )
        assert (hist.counts_at(qt) == brute_counts(table, hist, qt)).all()


class TestRingBuffer:
    def test_window_bounds(self):
        hist = make_hist(horizon=5)
        assert hist.window == (0, 5)
        with pytest.raises(HorizonError):
            hist.counts_at(6)
        hist.counts_at(0)  # in range

    def test_advance_shifts_window(self):
        hist = make_hist(m=10, horizon=5)
        table = ObjectTable()
        table.add_listener(hist)
        table.report(0, 5.0, 5.0, 0.0, 0.0)
        table.advance_to(2)
        assert hist.window == (2, 7)
        with pytest.raises(HorizonError):
            hist.counts_at(1)
        # Times covered by the original insert stay correct.
        assert hist.counts_at(5).sum() == 1
        # Times beyond the insert's horizon are (correctly) empty until the
        # object re-reports.
        assert hist.counts_at(7).sum() == 0

    def test_new_slot_filled_by_post_advance_reports(self):
        hist = make_hist(m=10, horizon=5)
        table = ObjectTable()
        table.add_listener(hist)
        table.report(0, 5.0, 5.0, 0.0, 0.0)
        table.advance_to(3)
        table.report(0, 5.0, 5.0, 0.0, 0.0)  # refresh
        assert hist.counts_at(8).sum() == 1  # slot t=8 covered by the refresh

    def test_advance_past_whole_window_resets(self):
        hist = make_hist(m=10, horizon=5)
        table = ObjectTable()
        table.add_listener(hist)
        table.report(0, 5.0, 5.0, 0.0, 0.0)
        table.advance_to(20)
        for qt in range(20, 26):
            assert hist.counts_at(qt).sum() == 0

    def test_delete_after_advance_only_touches_live_slots(self):
        hist = make_hist(m=10, horizon=5)
        table = ObjectTable()
        table.add_listener(hist)
        table.report(0, 5.0, 5.0, 0.0, 0.0)  # covers [0, 5]
        table.advance_to(2)  # window now [2, 7]
        table.report(0, 55.0, 55.0, 0.0, 0.0)  # delete old + insert new
        for qt in range(2, 6):
            counts = hist.counts_at(qt)
            assert counts.sum() == 1
            assert counts[hist.cell_of(55.0, 55.0)] == 1
        # Old insert never covered 6..7; new insert does.
        assert hist.counts_at(7).sum() == 1
        # No negative counters anywhere.
        assert int(hist.counts_at(2).min()) >= 0

    def test_backwards_advance_rejected(self):
        hist = make_hist(tnow=5)
        with pytest.raises(InvalidParameterError):
            hist.on_advance(4, ObjectTable().columns())


class TestPrefixSums:
    def test_prefix_sums_block(self):
        hist = make_hist(m=4, horizon=0)
        table = ObjectTable()
        table.add_listener(hist)
        # One object per cell of the 2x2 lower-left block.
        table.report(0, 5.0, 5.0, 0.0, 0.0)
        table.report(1, 30.0, 5.0, 0.0, 0.0)
        table.report(2, 5.0, 30.0, 0.0, 0.0)
        table.report(3, 30.0, 30.0, 0.0, 0.0)
        prefix = hist.prefix_sums(0)
        assert prefix[-1, -1] == 4
        sums0 = DensityHistogram.block_sums(prefix, radius=0)
        assert sums0[0, 0] == 1
        sums1 = DensityHistogram.block_sums(prefix, radius=1)
        assert sums1[0, 0] == 4  # clipped 2x2 block
        assert sums1[1, 1] == 4
        assert sums1[3, 3] == 0

    def test_block_sums_radius_clipping(self):
        hist = make_hist(m=3, horizon=0)
        table = ObjectTable()
        table.add_listener(hist)
        for oid, (x, y) in enumerate([(10, 10), (50, 50), (90, 90)]):
            table.report(oid, float(x), float(y), 0.0, 0.0)
        prefix = hist.prefix_sums(0)
        sums = DensityHistogram.block_sums(prefix, radius=5)  # covers all
        assert (sums == 3).all()

    def test_block_sums_negative_radius_raises(self):
        hist = make_hist(m=3, horizon=0)
        with pytest.raises(InvalidParameterError):
            DensityHistogram.block_sums(hist.prefix_sums(0), radius=-1)

    @given(st.integers(0, 10_000), st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_block_sums_match_bruteforce(self, seed, radius):
        gen = np.random.default_rng(seed)
        hist = make_hist(m=6, horizon=0)
        table = ObjectTable()
        table.add_listener(hist)
        for oid in range(25):
            table.report(
                oid, float(gen.uniform(0, 100)), float(gen.uniform(0, 100)), 0.0, 0.0
            )
        counts = hist.counts_at(0)
        sums = DensityHistogram.block_sums(hist.prefix_sums(0), radius)
        for i in range(6):
            for j in range(6):
                lo_i, hi_i = max(i - radius, 0), min(i + radius + 1, 6)
                lo_j, hi_j = max(j - radius, 0), min(j + radius + 1, 6)
                assert sums[i, j] == counts[lo_i:hi_i, lo_j:hi_j].sum()

    @given(st.integers(0, 10_000), st.sampled_from([1, 2, 7, 40]), st.sampled_from([30.0, 60.0]))
    @settings(max_examples=40, deadline=None)
    def test_block_sums_equal_the_clamped_gather_definition(self, seed, m, l):
        """``block_sums`` slices an edge-padded prefix array; the definition
        is four gathers at indices clamped to ``[0, m]``.  Same integers for
        the filter's two radii, the cell itself, and radii that reach or
        pass the grid's edge from every cell."""
        from repro.histogram.filter import neighborhood_radii

        gen = np.random.default_rng(seed)
        counts = gen.integers(0, 2**20, (m, m)).astype(np.int32)
        prefix = np.zeros((m + 1, m + 1), dtype=np.int64)
        prefix[1:, 1:] = counts.astype(np.int64).cumsum(axis=0).cumsum(axis=1)
        eta_l, eta_h = neighborhood_radii(l, 5.0)
        idx = np.arange(m)
        for radius in {0, 1, eta_l - 1, eta_h, max(m - 1, 0), m, m + 3}:
            lo = np.clip(idx - radius, 0, m)
            hi = np.clip(idx + radius + 1, 0, m)
            want = (
                prefix[np.ix_(hi, hi)]
                - prefix[np.ix_(lo, hi)]
                - prefix[np.ix_(hi, lo)]
                + prefix[np.ix_(lo, lo)]
            )
            got = DensityHistogram.block_sums(prefix, radius)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @given(
        st.integers(0, 10_000),
        st.sampled_from([1, 2, 7, 40]),
        st.sampled_from([1.0, 1.5, 2.5, 6.0]),
        st.permutations(range(6)),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_padded_prefix_classifies_as_the_int64_block_sums(self, seed, m, ratio, order):
        """The filter reads both radii from one edge-padded int32 prefix per
        ``qt``; its masks are the ones int64 block sums at clamped indices
        give, and the memo answers any radius, in any order — the cell
        itself, the filter's two, and radii that pass the pad or the grid."""
        from repro.core.query import SnapshotPDRQuery
        from repro.histogram.filter import filter_query, neighborhood_radii

        gen = np.random.default_rng(seed)
        hist = make_hist(m=m, horizon=0)
        counts = gen.integers(0, 40, (1, m, m)).astype(np.int32)
        hist.load_state_arrays({"counts": counts, "slot_time": np.zeros(1), "tnow": 0})
        prefix = np.zeros((m + 1, m + 1), dtype=np.int64)
        prefix[1:, 1:] = counts[0].astype(np.int64).cumsum(axis=0).cumsum(axis=1)
        idx = np.arange(m)

        def old_block_sums(radius):
            lo = np.clip(idx - radius, 0, m)
            hi = np.clip(idx + radius + 1, 0, m)
            return (
                prefix[np.ix_(hi, hi)] - prefix[np.ix_(lo, hi)]
                - prefix[np.ix_(hi, lo)] + prefix[np.ix_(lo, lo)]
            )

        l = 2.0 * hist.cell_edge * ratio
        eta_l, eta_h = neighborhood_radii(l, hist.cell_edge)
        expansive = old_block_sums(eta_h)
        min_count = float(np.median(expansive))
        got = filter_query(hist, SnapshotPDRQuery(rho=min_count / (l * l), l=l, qt=0))
        threshold = got.query.min_count - 1e-9
        accepted = old_block_sums(eta_l - 1) >= threshold
        candidate = ~accepted & (expansive >= threshold)
        assert np.array_equal(got.accepted, accepted)
        assert np.array_equal(got.candidate, candidate)
        radii = [0, 1, eta_l - 1, eta_h, m, m + 3]
        for radius in (radii[k] for k in order):
            assert np.array_equal(hist.block_sums_at(0, radius), old_block_sums(radius))
        assert np.array_equal(hist.prefix_sums(0), prefix)


# A step of the scatter oracle's script: an advance by ``k`` ticks, or one
# wave of ``(oid, x, y, vx, vy)`` reports.  Positions sit on a coarse lattice
# (shared cells) and speeds reach 40/tick (objects leave the 100-wide domain
# mid-window); advances of up to 8 ticks wrap a 4-slot ring and expire it.
_lattice = st.sampled_from([-5.0, 0.0, 5.0, 35.0, 50.0, 95.0, 99.0])
_speed = st.sampled_from([-40.0, -7.5, 0.0, 2.5, 10.0, 40.0])
_wave = st.lists(
    st.tuples(st.integers(0, 7), _lattice, _lattice, _speed, _speed),
    min_size=1, max_size=8, unique_by=lambda report: report[0],
)
_step = st.one_of(st.tuples(st.just("advance"), st.integers(1, 8)),
                  st.tuples(st.just("wave"), _wave),
                  st.tuples(st.just("retire"), st.integers(0, 7)))


def _oracle_counts(hist: DensityHistogram, live: dict) -> np.ndarray:
    """The ring a per-motion loop counts: every live motion, at every
    window timestamp its prediction covers, into a dict of cells."""
    cells: dict = {}
    slots = hist.horizon + 1
    for t_ref, x, y, vx, vy in live.values():
        for t in range(hist.tnow, hist.tnow + slots):
            if not t_ref <= t <= t_ref + hist.horizon:
                continue
            px, py = x + (t - t_ref) * vx, y + (t - t_ref) * vy
            i, j = math.floor(px / hist.cell_edge), math.floor(py / hist.cell_edge_y)
            if 0 <= i < hist.m and 0 <= j < hist.m:
                cells[t % slots, i, j] = cells.get((t % slots, i, j), 0) + 1
    ring = np.zeros((slots, hist.m, hist.m), dtype=np.int32)
    for key, count in cells.items():
        ring[key] = count
    return ring


class TestTypedScatter:
    @given(st.lists(_step, min_size=1, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_ring_equals_a_per_motion_loop(self, steps):
        hist = make_hist(m=4, horizon=3)
        table = ObjectTable()
        table.add_listener(hist)
        live: dict = {}  # oid -> (t_ref, x, y, vx, vy)
        for kind, arg in steps:
            if kind == "advance":
                table.advance_to(table.tnow + arg)
            elif kind == "retire":
                if arg in live:
                    table.retire(arg)
                    del live[arg]
            else:
                table.report_batch(arg)
                for oid, x, y, vx, vy in arg:
                    live[oid] = (table.tnow, x, y, vx, vy)
            assert np.array_equal(hist._counts, _oracle_counts(hist, live))

    @pytest.mark.parametrize("layout", ["fortran", "stepped"])
    def test_restore_from_a_non_contiguous_ring_keeps_counting(self, layout):
        def feed(table, waves):
            for wave in waves:
                table.advance_to(table.tnow + 1)
                table.report_batch(wave)

        gen = np.random.default_rng(5)
        waves = [
            [(oid, *gen.uniform(0, 100, 2), *gen.uniform(-5, 5, 2)) for oid in range(12)]
            for _ in range(6)
        ]
        fresh = make_hist(m=6, horizon=4)
        table = ObjectTable()
        table.add_listener(fresh)
        feed(table, waves[:3])
        state = fresh.state_arrays()
        if layout == "fortran":
            counts = np.asfortranarray(state["counts"])
        else:
            wide = np.zeros((5, 12, 6), dtype=np.int32)
            wide[:, ::2] = state["counts"]
            counts = wide[:, ::2]
        # no flat view of it exists: reshape(-1) must copy
        assert not np.shares_memory(counts.reshape(-1), counts)
        restored = make_hist(m=6, horizon=4)
        restored.load_state_arrays(dict(state, counts=counts))
        table.add_listener(restored)
        before = fresh._counts.copy()
        feed(table, waves[3:])
        assert not np.array_equal(fresh._counts, before)  # the waves count
        assert np.array_equal(restored._counts, fresh._counts)
