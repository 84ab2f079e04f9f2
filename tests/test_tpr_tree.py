"""Tests for the TPR-tree: structure, correctness against brute force, I/O."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PDRServer
from repro.baselines.bruteforce import bruteforce_from_motions
from repro.core.errors import IndexError_
from repro.core.geometry import Rect
from repro.datagen import TripSimulator, synthetic_metro
from repro.index.node import Node
from repro.index.tpbr import TPBR, anchored_edges, cheapest_enlargement, pick_split
from repro.index.tree import TPRTree
from repro.motion.model import Motion
from repro.motion.table import ObjectTable
from repro.motion.updates import Columns, UpdateListener
from repro.storage.buffer import BufferPool
from tests.conftest import small_pages, small_system_config


def make_tree(fanout=8, horizon=20, buffer_pool=None, tnow=0):
    """A table and the TPR-tree maintained against it: reports and retires
    go to the table, whose waves are the tree's only write path."""
    table = ObjectTable(tnow=tnow)
    with small_pages(fanout):
        tree = TPRTree(table, horizon=horizon, buffer_pool=buffer_pool)
    table.add_listener(tree)
    return table, tree


def random_motions(n, seed=0, tnow=0):
    gen = np.random.default_rng(seed)
    return [
        Motion(
            oid=i,
            t_ref=tnow,
            x=float(gen.uniform(0, 100)),
            y=float(gen.uniform(0, 100)),
            vx=float(gen.uniform(-2, 2)),
            vy=float(gen.uniform(-2, 2)),
        )
        for i in range(n)
    ]


def report(table, motions):
    """One one-row wave per motion (each registered at the table's clock)."""
    for m in motions:
        table.report(m.oid, m.x, m.y, m.vx, m.vy)


def columns_of(motions) -> Columns:
    """Motions as columns — ``table.restore`` loads them whatever their t_ref."""
    fields = list(zip(*[(m.oid, m.t_ref, m.x, m.y, m.vx, m.vy) for m in motions]))
    return Columns(
        np.array(fields[0], dtype=np.int64),
        np.array(fields[1], dtype=np.int64),
        *(np.array(column, dtype=float) for column in fields[2:]),
    )


def point(m: Motion) -> TPBR:
    return TPBR.point(m.t_ref, m.x, m.y, m.vx, m.vy)


def brute_range(motions, rect, qt):
    out = []
    for m in motions:
        x, y = m.position_at(qt)
        if rect.x1 <= x <= rect.x2 and rect.y1 <= y <= rect.y2:
            out.append(m.oid)
    return sorted(out)


class Waves(UpdateListener):
    """Keeps the waves a table dispatched, to replay or doctor them."""

    def __init__(self):
        self.seen = []

    def on_report_batch(self, wave):
        self.seen.append(wave)


class TestInsertBasics:
    def test_empty_tree(self):
        _, tree = make_tree()
        assert len(tree) == 0
        assert tree.height == 1
        assert tree.range_query(Rect(0, 0, 100, 100), 0) == []

    def test_single_insert_and_query(self):
        table, tree = make_tree()
        table.report(1, 5.0, 5.0, 1.0, 0.0)
        assert tree.range_query(Rect(0, 0, 10, 10), 0) == [1]
        # At t=10 the object has moved to x=15: outside.
        assert tree.range_query(Rect(0, 0, 10, 10), 10) == []
        assert tree.range_query(Rect(10, 0, 20, 10), 10) == [1]

    def test_duplicate_oid_rejected(self):
        table, tree = make_tree()
        waves = Waves()
        table.add_listener(waves)
        table.report(1, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(IndexError_):  # its row is indexed already
            tree.on_report_batch(waves.seen[0])
        assert len(tree) == 1
        tree.validate()

    def test_split_grows_height(self):
        table, tree = make_tree(fanout=4)
        report(table, random_motions(30))
        assert tree.height >= 2
        assert len(tree) == 30
        tree.validate()

    def test_query_before_tnow_raises(self):
        _, tree = make_tree(tnow=5)
        with pytest.raises(IndexError_):
            tree.range_query(Rect(0, 0, 1, 1), 4)

    def test_the_tree_keeps_no_motion_of_its_own(self):
        table, tree = make_tree(fanout=4)
        report(table, random_motions(30))
        for node in tree.root.subtree_nodes():
            if node.is_leaf:
                assert isinstance(node.entries, np.ndarray) and node.entries.dtype == np.intp
                assert node._cols is None  # leaves cache nothing: the table is the copy
        assert sorted(tree.root.subtree_rows().tolist()) == sorted(table.rows().tolist())


class TestDelete:
    def test_delete_removes_object(self):
        table, tree = make_tree()
        table.report(3, 5.0, 5.0, 0.0, 0.0)
        table.retire(3)
        assert len(tree) == 0
        assert tree.range_query(Rect(0, 0, 100, 100), 0) == []

    def test_delete_unknown_raises(self):
        table, tree = make_tree()
        waves = Waves()
        table.add_listener(waves)
        table.report(9, 0.0, 0.0, 0.0, 0.0)
        table.retire(9)
        with pytest.raises(IndexError_):  # the retire wave again: row gone
            tree.on_report_batch(waves.seen[1])

    def test_delete_all_after_splits(self):
        table, tree = make_tree(fanout=4)
        motions = random_motions(40, seed=3)
        report(table, motions)
        for m in motions:
            table.retire(m.oid)
        assert len(tree) == 0
        tree.validate()

    def test_interleaved_insert_delete(self):
        table, tree = make_tree(fanout=5)
        motions = random_motions(60, seed=4)
        live = {}
        gen = np.random.default_rng(11)
        for m in motions:
            report(table, [m])
            live[m.oid] = m
            if gen.random() < 0.4 and live:
                victim_oid = int(gen.choice(sorted(live)))
                table.retire(live.pop(victim_oid).oid)
        tree.validate()
        hits = tree.range_query(Rect(-1000, -1000, 1000, 1000), 0)
        assert sorted(hits) == sorted(live)

    def test_retire_then_first_report_reuses_the_row_within_one_tick(self):
        table, tree = make_tree(fanout=4)
        motions = random_motions(20, seed=6)
        report(table, motions)
        row = table.rows()[7]
        table.retire(motions[7].oid)
        table.report(500, 90.0, 90.0, 0.0, 0.0)  # takes the freed row
        assert table.rows()[-1] == row
        tree.validate()
        assert tree.range_query(Rect(89, 89, 91, 91), 0) == [500]
        assert motions[7].oid not in tree.range_query(Rect(-1e3, -1e3, 1e3, 1e3), 0)


class TestRangeQueryAgainstBruteForce:
    @given(
        st.integers(1, 60),
        st.integers(0, 10_000),
        st.integers(0, 15),
        st.tuples(
            st.floats(0, 80), st.floats(0, 80), st.floats(5, 60), st.floats(5, 60)
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_bruteforce(self, n, seed, qt, rect_params):
        x1, y1, w, h = rect_params
        rect = Rect(x1, y1, x1 + w, y1 + h)
        motions = random_motions(n, seed=seed)
        table, tree = make_tree(fanout=6)
        report(table, motions)
        assert sorted(tree.range_query(rect, qt)) == brute_range(motions, rect, qt)

    @given(st.integers(2, 40), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_bruteforce_after_deletes(self, n, seed):
        motions = random_motions(n, seed=seed)
        table, tree = make_tree(fanout=5)
        report(table, motions)
        for m in motions[:: 2]:
            table.retire(m.oid)
        remaining = motions[1::2]
        rect = Rect(20, 20, 70, 70)
        for qt in (0, 7):
            assert sorted(tree.range_query(rect, qt)) == brute_range(remaining, rect, qt)


class TestValidateInvariants:
    @given(st.integers(1, 80), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_structure_valid_after_bulk_insert(self, n, seed):
        table, tree = make_tree(fanout=5)
        report(table, random_motions(n, seed=seed))
        tree.validate()

    def test_node_count_reasonable(self):
        table, tree = make_tree(fanout=8)
        report(table, random_motions(100, seed=9))
        # With fanout 8 and min fill 40%, 100 objects need <= ~60 nodes.
        assert tree.node_count() <= 60

    def test_validate_sees_a_tree_that_lost_step_with_its_table(self):
        table, tree = make_tree(fanout=4)
        report(table, random_motions(12, seed=1))
        table.remove_listener(tree)
        table.report(3, 500.0, 500.0, 0.0, 0.0)  # overwrites row 3 behind the tree
        with pytest.raises(IndexError_, match="escapes"):
            tree.validate()
        table.report(99, 1.0, 1.0, 0.0, 0.0)
        tree.bulk_load()
        tree.validate()
        assert len(tree) == 13


class TestIOAccounting:
    def test_queries_charge_buffer(self):
        pool = BufferPool(capacity_pages=2)
        table, tree = make_tree(fanout=4, buffer_pool=pool)
        report(table, random_motions(40, seed=2))
        pool.reset_stats()
        tree.range_query(Rect(0, 0, 100, 100), 0)
        assert pool.stats.accesses > 0

    def test_charge_io_flag(self):
        pool = BufferPool(capacity_pages=2)
        table, tree = make_tree(fanout=4, buffer_pool=pool)
        report(table, random_motions(20, seed=2))
        pool.reset_stats()
        tree.range_query(Rect(0, 0, 100, 100), 0, charge_io=False)
        assert pool.stats.accesses == 0

    def test_updates_not_charged(self):
        pool = BufferPool(capacity_pages=2)
        table, tree = make_tree(fanout=4, buffer_pool=pool)
        report(table, random_motions(40, seed=2))
        # Inserts/splits never touched the pool (Section 4: maintenance I/O
        # is not counted).
        assert pool.stats.accesses == 0

    def test_repeated_query_hits_buffer(self):
        pool = BufferPool(capacity_pages=128)
        table, tree = make_tree(fanout=4, buffer_pool=pool)
        report(table, random_motions(60, seed=2))
        tree.range_query(Rect(0, 0, 100, 100), 0)
        first = pool.reset_stats()
        tree.range_query(Rect(0, 0, 100, 100), 0)
        second = pool.stats
        assert first.misses > 0
        assert second.misses == 0  # everything resident now
        assert second.hits == first.accesses


def bound_columns(bounds) -> np.ndarray:
    """One :meth:`TPBR.column` per column — what :meth:`Node.columns` returns."""
    return np.array([b.column() for b in bounds], dtype=float).reshape(len(bounds), 9).T


def bound_of_entries(bounds, t_ref: float) -> TPBR:
    """The scalar reference: TPBR anchored at ``t_ref`` grown over every bound
    (a motion enters as its degenerate :func:`point` bound) one at a time."""
    bound = TPBR.empty(t_ref)
    for other in bounds:
        bound.extend_tpbr(other)
    return bound


def loop_split(bounds, min_fill, t_from, t_to):
    """The scalar axis-sweep split the columnar :func:`pick_split` replaced:
    ``sorted`` by centre, prefix/suffix bounds grown by ``extend_tpbr``, key
    (summed integral area, summed integral margin), first minimum wins."""
    n = len(bounds)
    t_mid = (t_from + t_to) / 2.0

    def center(b, axis):
        r = bound_of_entries([b], t_mid)
        return ((r.x1 + r.x2) / 2.0, (r.y1 + r.y2) / 2.0)[axis]

    best_cost, best = (float("inf"), float("inf")), None
    for axis in (0, 1):
        order = sorted(range(n), key=lambda i: center(bounds[i], axis))
        for k in range(min_fill, n - min_fill + 1):
            first = bound_of_entries([bounds[i] for i in order[:k]], t_from)
            second = bound_of_entries([bounds[i] for i in order[k:]], t_from)
            cost = (
                first.integral_area(t_from, t_to) + second.integral_area(t_from, t_to),
                first.integral_margin(t_from, t_to) + second.integral_margin(t_from, t_to),
            )
            if cost < best_cost:
                best_cost, best = cost, (order[:k], order[k:])
    return best


class TestSplitHelper:
    def test_pick_split_sizes(self):
        cols = bound_columns([point(m) for m in random_motions(10, seed=1)])
        a, b = pick_split(cols, min_fill=3, t_from=0, t_to=10)
        assert len(a) >= 3 and len(b) >= 3
        assert sorted(a.tolist() + b.tolist()) == list(range(10))

    def test_pick_split_too_few_raises(self):
        cols = bound_columns([point(m) for m in random_motions(4)])
        with pytest.raises(IndexError_):
            pick_split(cols, min_fill=3, t_from=0, t_to=10)

    def test_split_separates_clusters(self):
        left = [Motion(i, 0, float(i), 0.0, 0.0, 0.0) for i in range(5)]
        right = [Motion(10 + i, 0, 100.0 + i, 0.0, 0.0, 0.0) for i in range(5)]
        cols = bound_columns([point(m) for m in left + right])
        a, b = pick_split(cols, min_fill=2, t_from=0, t_to=10)
        assert {frozenset(a.tolist()), frozenset(b.tolist())} == {
            frozenset(range(5)), frozenset(range(5, 10))
        }

    def test_bound_of_entries(self):
        motions = [Motion(0, 0, 0, 0, 0, 0), Motion(1, 0, 10, 5, 0, 0)]
        table = ObjectTable()
        report(table, motions)
        leaf = Node(0, level=0, t_ref=0.0)
        leaf.set_entries(table.rows(), 0.0, table)
        r = leaf.bound.rect_at(0)
        assert (r.x1, r.y1, r.x2, r.y2) == (0, 0, 10, 5)
        assert leaf.bound == bound_of_entries([point(m) for m in motions], 0.0)


# ----------------------------------------------------------------------
# columnar node arithmetic == the scalar TPBR loops
# ----------------------------------------------------------------------
# Lattice-valued coordinates make exact ties, shared edges and zero-area or
# collinear groups likely instead of measure-zero.
lattice = st.integers(min_value=-8, max_value=8).map(lambda v: v / 2.0)
coordinate = st.one_of(
    lattice, st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
)
velocity = st.one_of(lattice, st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))


@st.composite
def motion_lists(draw, min_size=1, max_size=12):
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9), coordinate, coordinate,
                velocity, velocity,
            ),
            min_size=min_size,
            max_size=max_size,
        )
    )
    return [Motion(i, *row) for i, row in enumerate(rows)]


def leaves_over(groups, anchors):
    """One table holding every group's motions (whatever their t_ref) and one
    leaf per group over its rows, bounded at the group's anchor."""
    flat = [m for motions in groups for m in motions]
    table = ObjectTable()
    table.restore(columns_of([dataclasses.replace(m, oid=i) for i, m in enumerate(flat)]), 0)
    rows = table.rows()
    leaves, start = [], 0
    for page, (motions, anchor) in enumerate(zip(groups, anchors)):
        leaf = Node(page, level=0, t_ref=0.0)
        leaf.set_entries(rows[start : start + len(motions)], float(anchor), table)
        leaves.append(leaf)
        start += len(motions)
    return table, leaves


def loop_choice(children, probe, t_from, t_to):
    """The scalar choose-subtree loop: key (enlargement, base), first minimum."""
    best, best_key = None, None
    for index, child in enumerate(children):
        base = child.bound.integral_area(t_from, t_to)
        grown = child.bound.enlarged_integral(probe, t_from, t_to)
        key = (grown - base, base)
        if best_key is None or key < best_key:
            best, best_key = index, key
    return best


class TestColumnarArithmetic:
    @settings(max_examples=150, deadline=None)
    @given(motion_lists(max_size=30), st.integers(min_value=9, max_value=40))
    def test_leaf_bound_equals_extend_motion_loop(self, motions, t_ref):
        table, (leaf,) = leaves_over([motions], [t_ref])
        assert leaf.bound == bound_of_entries([point(m) for m in motions], float(t_ref))
        # ... and again for a leaf that grew one row at a time
        grown = Node(1, level=0, t_ref=float(t_ref))
        for row, motion in zip(table.rows().tolist(), motions):
            grown.add(row, point(motion))
        assert grown.bound == leaf.bound
        grown.retighten(float(t_ref), table)
        assert grown.bound == leaf.bound
        assert grown.entries.tolist() == leaf.entries.tolist()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(motion_lists(max_size=4), min_size=1, max_size=8),
        st.lists(st.integers(min_value=0, max_value=7), max_size=4),
        st.lists(st.integers(min_value=0, max_value=9), min_size=12, max_size=12),
        motion_lists(max_size=1),
        st.integers(min_value=0, max_value=30),
    )
    def test_choose_subtree_equals_scalar_loop(self, groups, repeats, anchors, probe, horizon):
        t_from = 10.0
        # duplicated groups tie exactly; single motions and collinear groups
        # have zero integral area
        groups = groups + [groups[i % len(groups)] for i in repeats]
        table, children = leaves_over(groups, anchors)
        parent = Node(99, level=1, t_ref=t_from)
        parent.set_entries(children, t_from, table)
        got = cheapest_enlargement(parent.columns(table), point(probe[0]), t_from, t_from + horizon)
        assert got == loop_choice(children, point(probe[0]), t_from, t_from + horizon)
        # the parent's own bound: one min/max over the cached child columns
        assert parent.bound == bound_of_entries([c.bound for c in children], t_from)

    def test_choose_subtree_first_minimum_wins_on_ties(self):
        twin = [Motion(0, 0, 1.0, 1.0, 0.0, 0.0), Motion(1, 0, 3.0, 2.0, 0.5, 0.0)]
        table, twins = leaves_over([twin, twin, twin], [0.0, 0.0, 0.0])
        parent = Node(9, level=1, t_ref=0.0)
        parent.set_entries(twins, 0.0, table)
        inside = point(Motion(50, 0, 2.0, 1.5, 0.25, 0.0))  # enlarges none of them
        assert cheapest_enlargement(parent.columns(table), inside, 0.0, 10.0) == 0
        assert loop_choice(twins, inside, 0.0, 10.0) == 0

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(motion_lists(max_size=3), min_size=4, max_size=12),
        st.lists(st.integers(min_value=0, max_value=9), min_size=12, max_size=12),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=30),
        st.booleans(),
    )
    def test_pick_split_equals_scalar_loop(self, groups, anchors, min_fill, horizon, as_leaf):
        """Leaf entries (degenerate bounds) and internal entries (child
        bounds, mixed anchors) go through the same columnar scorer; lattice
        values make tied centres, tied costs and zero-area groups common."""
        t_from = 10.0
        if as_leaf:
            bounds = [point(m) for motions in groups for m in motions]
        else:
            bounds = [leaf.bound for leaf in leaves_over(groups, anchors)[1]]
        if len(bounds) < 2 * min_fill:
            with pytest.raises(IndexError_):
                pick_split(bound_columns(bounds), min_fill, t_from, t_from + horizon)
            return
        first, second = pick_split(bound_columns(bounds), min_fill, t_from, t_from + horizon)
        want = loop_split(bounds, min_fill, t_from, t_from + horizon)
        assert (first.tolist(), second.tolist()) == want


# ----------------------------------------------------------------------
# one wave == the same reports as one-row waves
# ----------------------------------------------------------------------
def contents(table, tree):
    """The motions the tree indexes, read where they live: in the table."""
    return sorted(table.columns(tree.root.subtree_rows()).tuples())


def leaves_of(tree):
    return [node for node in tree.root.subtree_nodes() if node.is_leaf]


def oids_in(table, leaf, count=None):
    return table.columns(leaf.entries[:count]).oid.tolist()


class TestWaveMaintenance:
    def build_pair(self, n=120, fanout=8):
        """Two identical (table, tree) pairs: ``rowwise`` will take a tick's
        reports as one-row waves, ``wave`` as one wave."""
        motions = random_motions(n, seed=5)
        pair = (make_tree(fanout=fanout), make_tree(fanout=fanout))
        for table, _ in pair:
            report(table, motions)
        return pair

    @staticmethod
    def move_away(oids, tick=1):
        return [(oid, 500.0 + oid, 500.0, 0.0, 1.0) for oid in oids]

    def apply_both(self, pair, reports):
        (rowwise_table, rowwise), (wave_table, wave) = pair
        for table in (rowwise_table, wave_table):
            table.advance_to(1)
        for r in reports:
            rowwise_table.report(*r)
        wave_table.report_batch(reports)
        wave.validate()
        rowwise.validate()
        assert contents(wave_table, wave) == contents(rowwise_table, rowwise)

    def test_wave_underfilling_several_leaves_and_emptying_one(self):
        pair = self.build_pair()
        table, wave = pair[1]
        min_fill = wave._min_fill_leaf
        leaves = leaves_of(wave)
        assert len(leaves) >= 8
        movers = oids_in(table, leaves[0])  # this leaf is emptied
        for leaf in leaves[1:5]:  # these end one short of the minimum fill
            movers += oids_in(table, leaf, len(leaf.entries) - min_fill + 1)
        assert 2 * len(movers) < len(wave)  # below the repack threshold
        self.apply_both(pair, self.move_away(movers))
        assert len(wave) == 120

    def test_report_wave_moving_whole_leaves_away(self):
        pair = self.build_pair()
        table, wave = pair[1]
        movers = [oid for leaf in leaves_of(wave)[:4] for oid in oids_in(table, leaf)]
        self.apply_both(pair, self.move_away(movers))

    def test_wave_dissolving_every_leaf_of_a_two_leaf_tree(self):
        table, tree = make_tree(fanout=20)
        motions = random_motions(21, seed=2)  # one split: two leaves under one root
        report(table, motions)
        assert tree.height == 2 and len(leaves_of(tree)) == 2
        min_fill = tree._min_fill_leaf
        movers = [
            oid for leaf in leaves_of(tree)
            for oid in oids_in(table, leaf, len(leaf.entries) - min_fill + 1)
        ]
        assert 2 * len(movers) < len(tree)
        table.report_batch(self.move_away(movers))
        tree.validate()
        assert sorted(tree.range_query(Rect(-1e4, -1e4, 1e4, 1e4), 0)) == list(range(21))
        assert sorted(tree.range_query(Rect(400, 400, 700, 700), 0)) == sorted(movers)

    def test_wave_rejects_unknown_and_repeated_oids_before_mutating(self):
        table, tree = self.build_pair(n=40)[1]
        waves = Waves()
        table.remove_listener(tree)
        table.add_listener(waves)
        table.report_batch(self.move_away([3, 4]))  # the tree does not see this wave ...
        good = waves.seen[0]
        before = sorted(tree.root.subtree_rows().tolist())
        unknown = table.rows().max() + 1
        for field, value in (
            ("deleted_rows", np.array([good.deleted_rows[0]] * 2)),  # ... a row twice
            ("deleted_rows", np.array([good.deleted_rows[0], unknown])),  # ... a row unknown
            ("rows", np.array([good.rows[0], table.rows()[10]])),  # ... a row still indexed
        ):
            with pytest.raises(IndexError_):
                tree.on_report_batch(dataclasses.replace(good, **{field: value}))
            assert sorted(tree.root.subtree_rows().tolist()) == before
        tree.on_report_batch(good)  # ... until now
        tree.validate()

    def test_bulk_load_matches_incremental_contents(self):
        motions = random_motions(300, seed=9)
        table = ObjectTable()
        report(table, motions)
        with small_pages(8):
            packed = TPRTree(table, horizon=20)
        packed.bulk_load()
        packed.validate()
        assert contents(table, packed) == sorted(
            (m.oid, m.t_ref, m.x, m.y, m.vx, m.vy) for m in motions
        )
        rect = Rect(20, 20, 70, 70)
        assert sorted(packed.range_query(rect, 4)) == brute_range(motions, rect, 4)

    def test_dominating_waves_repack(self):
        table, tree = make_tree(fanout=4)
        table.report_batch(self.move_away(range(30)))  # outnumbers an empty tree
        tree.validate()
        packed = [len(leaf.entries) for leaf in leaves_of(tree)]
        assert len(tree) == 30 and packed == [4, 4, 2] * 3  # three STR slabs
        table.report_batch(  # moves over half of it
            [(oid, 100.0 + oid, 100.0, 1.0, 0.0) for oid in range(16)]
        )
        tree.validate()
        assert [len(leaf.entries) for leaf in leaves_of(tree)] == packed
        table.report_batch(self.move_away(range(5)))  # a small wave goes in row by row
        tree.validate()
        assert len(tree) == 30


def _small_page_server(n: int) -> PDRServer:
    """A server on 256-byte pages: 5 rows a leaf, 4 children a node."""
    with small_pages((256 - 32) // 40, 4):
        return PDRServer(small_system_config(), expected_objects=n)


def edges_at(bound: TPBR, t: float):
    """A bound's ``x1, y1, x2, y2`` at ``t``, by the tree's own expression."""
    dt = t - bound.t_ref
    return (
        bound.x1 + bound.vx1 * dt, bound.y1 + bound.vy1 * dt,
        bound.x2 + bound.vx2 * dt, bound.y2 + bound.vy2 * dt,
    )


def inside_motion(bound: TPBR, t: float):
    """A motion the bound contains from ``t`` on: its centre, mid velocity."""
    x1, y1, x2, y2 = edges_at(bound, t)
    return (x1 + x2) / 2, (y1 + y2) / 2, (bound.vx1 + bound.vx2) / 2, (bound.vy1 + bound.vy2) / 2


class TestInPlaceReReports:
    """A re-report whose new motion its leaf's bound contains — position at
    ``tnow`` inside the closed edges, velocity inside the edge velocities —
    stays in its leaf: no discard, no choose-leaf descent, no split."""

    @staticmethod
    def world():
        """120 objects under fanout 8, the clock one tick past every anchor;
        a leaf of several rows and the oid of its first (not last) row."""
        table, tree = make_tree(fanout=8)
        report(table, random_motions(120, seed=5))
        table.advance_to(1)
        leaf = next(leaf for leaf in leaves_of(tree) if len(leaf.entries) >= 3)
        assert leaf.bound.t_ref < 1
        row = int(leaf.entries[0])
        return table, tree, leaf, row, oids_in(table, leaf, 1)[0]

    @staticmethod
    def spy_inserts(tree, monkeypatch):
        """The rows that go through choose-leaf insertion from now on."""
        inserted = []
        insert_rows = tree._insert_rows

        def spy(rows):
            inserted.extend(rows.tolist())
            insert_rows(rows)

        monkeypatch.setattr(tree, "_insert_rows", spy)
        return inserted

    def test_a_contained_re_report_keeps_its_leaf(self, monkeypatch):
        table, tree, leaf, row, oid = self.world()
        order = leaf.entries.tolist()
        inserted = self.spy_inserts(tree, monkeypatch)
        table.report(oid, *inside_motion(leaf.bound, 1))
        assert tree._leaf_of[row] is leaf
        assert leaf.entries.tolist() == order and inserted == []
        assert leaf.bound.t_ref == 1  # the leaf was retightened ...
        settled = leaf.bound.copy()
        leaf.retighten(tree._tnow, table)
        assert leaf.bound == settled  # ... to what a fresh retighten gives
        tree.validate()

    @pytest.mark.parametrize("corner", ["low", "high"])
    def test_a_re_report_on_the_bound_edge_stays(self, corner, monkeypatch):
        table, tree, leaf, row, oid = self.world()
        x1, y1, x2, y2 = edges_at(leaf.bound, 1)
        b = leaf.bound
        motion = (x1, y1, b.vx1, b.vy1) if corner == "low" else (x2, y2, b.vx2, b.vy2)
        inserted = self.spy_inserts(tree, monkeypatch)
        table.report(oid, *motion)
        assert tree._leaf_of[row] is leaf and inserted == []
        tree.validate()

    @pytest.mark.parametrize("axis", [0, 1])
    def test_a_re_report_just_past_the_edge_descends(self, axis, monkeypatch):
        table, tree, leaf, row, oid = self.world()
        motion = list(inside_motion(leaf.bound, 1))
        motion[axis] = np.nextafter(edges_at(leaf.bound, 1)[axis], -np.inf)
        inserted = self.spy_inserts(tree, monkeypatch)
        table.report(oid, *motion)
        assert row in inserted
        tree.validate()

    @pytest.mark.parametrize("axis", [2, 3])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_a_re_report_whose_velocity_leaves_the_bound_descends(
        self, axis, side, monkeypatch
    ):
        table, tree, leaf, row, oid = self.world()
        b = leaf.bound
        low, high = (b.vx1, b.vx2) if axis == 2 else (b.vy1, b.vy2)
        motion = list(inside_motion(b, 1))
        motion[axis] = high + 0.25 if side > 0 else low - 0.25
        inserted = self.spy_inserts(tree, monkeypatch)
        table.report(oid, *motion)
        assert row in inserted
        tree.validate()
        assert oid in tree.range_query(Rect(-1e4, -1e4, 1e4, 1e4), 1)

    def test_rows_that_stay_do_not_count_toward_a_repack(self):
        """The "wave dominates the population" rule counts the rows that
        leave their leaves: a tick that re-reports two thirds of the objects
        where their motions already are retightens; one that moves them
        repacks."""
        table, tree = make_tree(fanout=4)
        table.report_batch(TestWaveMaintenance.move_away(range(30)))  # one STR pack
        packed = {leaf.page_id for leaf in leaves_of(tree)}
        table.advance_to(1)
        table.report_batch([(oid, 500.0 + oid, 501.0, 0.0, 1.0) for oid in range(20)])
        assert {leaf.page_id for leaf in leaves_of(tree)} == packed
        moved = table.rows()[:20].tolist()  # first-report order: oids 0..19
        assert all(tree._leaf_of[row].bound.t_ref == 1 for row in moved)
        tree.validate()
        table.report_batch([(oid, 100.0 + oid, 100.0, 1.0, 0.0) for oid in range(20)])
        assert packed.isdisjoint(leaf.page_id for leaf in leaves_of(tree))
        tree.validate()

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(20, 60),
        st.integers(1, 5),
        st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5), st.floats(0.0, 0.2)),
    )
    @settings(max_examples=20, deadline=None)
    def test_mixed_waves_keep_the_tree_exact(self, seed, n, ticks, shares):
        """First reports, contained and escaping re-reports and retires,
        tick after tick, on a server whose pages hold 5 rows: the tree stays
        valid and exact, the audit is clean, and FR equals brute force.
        Exactly the contained re-reports stay put."""
        contained_share, escaping_share, retire_share = shares
        rng = np.random.default_rng(seed)
        server = _small_page_server(n)
        table, tree = server.table, server.tree
        kept = []
        stays_put = tree._stays_put

        def counted(wave):
            stays = stays_put(wave)
            kept.append(int(stays.sum()))
            return stays

        tree._stays_put = counted

        def fresh(oid):
            x, y = rng.uniform(20.0, 80.0, size=2)
            vx, vy = rng.uniform(-1.0, 1.0, size=2)
            return (oid, float(x), float(y), float(vx), float(vy))

        server.report_batch([fresh(oid) for oid in range(n)])
        next_oid, expected_kept = n, 0
        for tick in range(1, ticks + 1):
            server.advance_to(tick)
            oids = table.columns().oid.tolist()
            fate = rng.random(len(oids))
            for oid, u in zip(oids, fate):
                if u < retire_share:
                    assert server.retire(oid)
            contained, escaping = [], []
            for oid, u in zip(oids, fate):
                u -= retire_share
                if 0.0 <= u < contained_share:
                    bound = tree._leaf_of[table._row_of[oid]].bound
                    contained.append((oid, *inside_motion(bound, tick)))
                elif 0.0 <= u - contained_share < escaping_share:
                    bound = tree._leaf_of[table._row_of[oid]].bound
                    _, x, y, _, vy = fresh(oid)
                    escaping.append((oid, x, y, bound.vx2 + 0.5, vy))
            firsts = [fresh(next_oid + i) for i in range(int(rng.integers(0, 4)))]
            next_oid += len(firsts)
            wave = contained + escaping + firsts
            order = rng.permutation(len(wave))
            accepted = server.report_batch([wave[i] for i in order])
            expected_kept += sum(
                accepted[j] is not None for j, i in enumerate(order) if i < len(contained)
            )
            tree.validate()
            assert server.audit(raise_on_violation=False) == []
            assert sorted(tree.root.subtree_rows().tolist()) == sorted(table.rows().tolist())
            result = server.query("fr", qt=tick + 2, varrho=2.0)
            want = bruteforce_from_motions(table.columns(), server.config.domain, result.query)
            assert result.regions.symmetric_difference_area(want.regions) == 0.0
        assert sum(kept) == expected_kept


class _Trace:
    """What a datagen simulator sees instead of an ObjectTable: it records
    every tick's reports."""

    def __init__(self):
        self.tnow = 0
        self.motions = {}
        self.waves = {}

    def advance_to(self, tnow):
        self.tnow = tnow

    def motion_of(self, oid):
        return self.motions.get(oid)

    def report(self, oid, x, y, vx, vy):
        new = Motion(oid, self.tnow, x, y, vx, vy)
        self.motions[oid] = new
        self.waves.setdefault(self.tnow, []).append((oid, x, y, vx, vy))
        return new


def test_wave_maintained_tree_is_as_tight_as_the_sequential_one():
    """Tree-quality guard: leaf-grouped condense and Z-ordered wave inserts
    must not buy their speed with looser leaves than one-row waves give.
    Both trees start from one STR pack of the tick-60 world (by then the
    road traffic reports staggered, a few to a few dozen objects per tick)
    and absorb the same 50 ticks of reports."""
    domain = Rect(0.0, 0.0, 1000.0, 1000.0)
    simulator = TripSimulator(
        synthetic_metro(domain, grid_n=20, seed=7), n_objects=600, update_interval=60, seed=13
    )
    trace = _Trace()
    simulator.initialize(trace)
    simulator.run_until(trace, 60)
    start = columns_of(trace.motions.values())
    simulator.run_until(trace, 110)
    horizon = 120
    pair = []
    for _ in range(2):
        table = ObjectTable()
        table.restore(start, 60)
        with small_pages(16):
            tree = TPRTree(table, horizon=horizon)
        tree.bulk_load()
        table.add_listener(tree)
        pair.append((table, tree))
    (rowwise_table, rowwise), (wave_table, wave) = pair
    for tick in range(61, 111):
        reports = trace.waves.get(tick, [])
        assert 0 < 2 * len(reports) < len(wave)  # never the repack path
        rowwise_table.advance_to(tick)
        wave_table.advance_to(tick)
        for r in reports:
            rowwise_table.report(*r)
        wave_table.report_batch(reports)
    wave.validate()
    assert contents(wave_table, wave) == contents(rowwise_table, rowwise)

    def leaf_area(tree):
        return sum(
            leaf.bound.integral_area(tree._tnow, tree._tnow + horizon)
            for leaf in leaves_of(tree)
        )

    assert leaf_area(wave) <= 1.10 * leaf_area(rowwise)


def fresh_bound(node: Node, table) -> TPBR:
    """The bound a single-node retighten gives ``node`` at its own anchor,
    computed here from scratch: leaves from the table's motions, internal
    nodes from their children's bounds (never the cached columns)."""
    t = node.bound.t_ref
    if not len(node.entries):
        return TPBR.empty(t)
    if node.is_leaf:
        _, t_ref, x, y, vx, vy = table.columns(node.entries)
        cols = np.array([x, y, vx, vy, x, y, vx, vy, t_ref], dtype=float)
    else:
        cols = node.child_columns()
    lo, hi = anchored_edges(cols, t)
    (x1, y1, vx1, vy1), (x2, y2, vx2, vy2) = lo.min(axis=1).tolist(), hi.max(axis=1).tolist()
    return TPBR(t, x1, y1, x2, y2, vx1, vy1, vx2, vy2)


class TestLevelBatchedCondense:
    """A wave retightens the touched nodes of a level in one gather and one
    ``reduceat``; every bound must be the one a node-by-node retighten
    computes."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(12, 50),
        st.lists(
            st.one_of(
                st.tuples(st.just("move"), st.floats(0.05, 0.45)),
                st.tuples(st.just("retire"), st.integers(1, 12)),
                st.tuples(st.just("drain"), st.integers(1, 3)),
                st.tuples(st.just("advance"), st.integers(1, 3)),
            ),
            min_size=1, max_size=6,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_waves_that_dissolve_leaves_and_collapse_the_root(self, seed, n, steps):
        """Moves re-report a share of the objects far from where they were
        (their leaves underflow and dissolve), retires shrink the tree one
        row-wave at a time, and a drain leaves 1-3 objects (the root
        collapses).  After every wave each leaf's bound, and each internal
        node's whose children share its anchor, equals :func:`fresh_bound`
        — a parent anchored later than a child it grew through is tighter
        than a retighten over that child's bound, by design — the tree
        validates, indexes the live rows, and FR equals brute force."""
        rng = np.random.default_rng(seed)
        server = _small_page_server(n)
        table, tree = server.table, server.tree

        def fresh(oid):
            x, y = rng.uniform(5.0, 95.0, size=2)
            vx, vy = rng.uniform(-1.0, 1.0, size=2)
            return (oid, float(x), float(y), float(vx), float(vy))

        def check():
            tree.validate()
            for node in tree.root.subtree_nodes():
                if node.is_leaf or all(
                    child.bound.t_ref == node.bound.t_ref for child in node.entries
                ):
                    assert node.bound == fresh_bound(node, table), node
            assert sorted(tree.root.subtree_rows().tolist()) == sorted(table.rows().tolist())
            result = server.query("fr", qt=server.tnow + 2, varrho=2.0)
            want = bruteforce_from_motions(table.columns(), server.config.domain, result.query)
            assert result.regions.symmetric_difference_area(want.regions) == 0.0

        server.report_batch([fresh(oid) for oid in range(n)])
        check()
        for kind, arg in steps:
            oids = table.columns().oid.tolist()
            if kind == "advance":
                server.advance_to(server.tnow + arg)
                continue
            if kind == "move":
                picked = rng.permutation(oids)[: max(1, int(arg * len(oids)))]
                server.report_batch([fresh(int(oid)) for oid in picked])
                check()
                continue
            doomed = oids[: len(oids) - arg] if kind == "drain" else oids[:arg]
            for oid in doomed[: len(oids) - 1]:
                assert server.retire(oid)
                check()
