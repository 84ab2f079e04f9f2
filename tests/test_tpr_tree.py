"""Tests for the TPR-tree: structure, correctness against brute force, I/O."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import IndexError_
from repro.core.geometry import Rect
from repro.datagen import TripSimulator, synthetic_metro
from repro.index.node import Node
from repro.index.split import bound_of_entries, pick_split
from repro.index.tpbr import cheapest_enlargement
from repro.index.tree import TPRTree
from repro.motion.model import Motion
from repro.motion.updates import DeleteUpdate, InsertUpdate
from repro.storage.buffer import BufferPool


def make_tree(fanout=8, horizon=20, buffer_pool=None, tnow=0):
    return TPRTree(
        horizon=horizon, buffer_pool=buffer_pool, tnow=tnow, fanout_override=fanout
    )


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


def brute_range(motions, rect, qt):
    out = []
    for m in motions:
        x, y = m.position_at(qt)
        if rect.x1 <= x <= rect.x2 and rect.y1 <= y <= rect.y2:
            out.append(m.oid)
    return sorted(out)


class TestInsertBasics:
    def test_empty_tree(self):
        tree = make_tree()
        assert len(tree) == 0
        assert tree.height == 1
        assert tree.range_query(Rect(0, 0, 100, 100), 0) == []

    def test_single_insert_and_query(self):
        tree = make_tree()
        tree.insert(Motion(1, 0, 5.0, 5.0, 1.0, 0.0))
        hits = tree.range_query(Rect(0, 0, 10, 10), 0)
        assert [m.oid for m in hits] == [1]
        # At t=10 the object has moved to x=15: outside.
        assert tree.range_query(Rect(0, 0, 10, 10), 10) == []
        assert [m.oid for m in tree.range_query(Rect(10, 0, 20, 10), 10)] == [1]

    def test_duplicate_oid_rejected(self):
        tree = make_tree()
        tree.insert(Motion(1, 0, 0, 0, 0, 0))
        with pytest.raises(IndexError_):
            tree.insert(Motion(1, 0, 5, 5, 0, 0))

    def test_split_grows_height(self):
        tree = make_tree(fanout=4)
        for m in random_motions(30):
            tree.insert(m)
        assert tree.height >= 2
        assert len(tree) == 30
        tree.validate()

    def test_query_before_tnow_raises(self):
        tree = make_tree(tnow=5)
        with pytest.raises(IndexError_):
            tree.range_query(Rect(0, 0, 1, 1), 4)


class TestDelete:
    def test_delete_removes_object(self):
        tree = make_tree()
        m = Motion(3, 0, 5.0, 5.0, 0.0, 0.0)
        tree.insert(m)
        tree.delete(m)
        assert len(tree) == 0
        assert tree.range_query(Rect(0, 0, 100, 100), 0) == []

    def test_delete_unknown_raises(self):
        with pytest.raises(IndexError_):
            make_tree().delete(Motion(9, 0, 0, 0, 0, 0))

    def test_delete_all_after_splits(self):
        tree = make_tree(fanout=4)
        motions = random_motions(40, seed=3)
        for m in motions:
            tree.insert(m)
        for m in motions:
            tree.delete(m)
        assert len(tree) == 0
        tree.validate()

    def test_interleaved_insert_delete(self):
        tree = make_tree(fanout=5)
        motions = random_motions(60, seed=4)
        live = {}
        gen = np.random.default_rng(11)
        for m in motions:
            tree.insert(m)
            live[m.oid] = m
            if gen.random() < 0.4 and live:
                victim_oid = int(gen.choice(sorted(live)))
                tree.delete(live.pop(victim_oid))
        tree.validate()
        hits = tree.range_query(Rect(-1000, -1000, 1000, 1000), 0)
        assert sorted(m.oid for m in hits) == sorted(live)

    def test_root_collapse(self):
        tree = make_tree(fanout=4)
        motions = random_motions(30, seed=5)
        for m in motions:
            tree.insert(m)
        tall = tree.height
        for m in motions[:-2]:
            tree.delete(m)
        assert tree.height <= tall
        tree.validate()
        assert len(tree) == 2


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
        tree = make_tree(fanout=6)
        for m in motions:
            tree.insert(m)
        hits = sorted(m.oid for m in tree.range_query(rect, qt))
        assert hits == brute_range(motions, rect, qt)

    @given(st.integers(2, 40), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_bruteforce_after_deletes(self, n, seed):
        motions = random_motions(n, seed=seed)
        tree = make_tree(fanout=5)
        for m in motions:
            tree.insert(m)
        for m in motions[:: 2]:
            tree.delete(m)
        remaining = motions[1::2]
        rect = Rect(20, 20, 70, 70)
        for qt in (0, 7):
            hits = sorted(m.oid for m in tree.range_query(rect, qt))
            assert hits == brute_range(remaining, rect, qt)


class TestValidateInvariants:
    @given(st.integers(1, 80), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_structure_valid_after_bulk_insert(self, n, seed):
        tree = make_tree(fanout=5)
        for m in random_motions(n, seed=seed):
            tree.insert(m)
        tree.validate()

    def test_node_count_reasonable(self):
        tree = make_tree(fanout=8)
        for m in random_motions(100, seed=9):
            tree.insert(m)
        # With fanout 8 and min fill 40%, 100 objects need <= ~60 nodes.
        assert tree.node_count() <= 60


class TestIOAccounting:
    def test_queries_charge_buffer(self):
        pool = BufferPool(capacity_pages=2)
        tree = make_tree(fanout=4, buffer_pool=pool)
        for m in random_motions(40, seed=2):
            tree.insert(m)
        pool.reset_stats()
        tree.range_query(Rect(0, 0, 100, 100), 0)
        assert pool.stats.accesses > 0

    def test_charge_io_flag(self):
        pool = BufferPool(capacity_pages=2)
        tree = make_tree(fanout=4, buffer_pool=pool)
        for m in random_motions(20, seed=2):
            tree.insert(m)
        pool.reset_stats()
        tree.range_query(Rect(0, 0, 100, 100), 0, charge_io=False)
        assert pool.stats.accesses == 0

    def test_updates_not_charged(self):
        pool = BufferPool(capacity_pages=2)
        tree = make_tree(fanout=4, buffer_pool=pool)
        for m in random_motions(40, seed=2):
            tree.insert(m)
        # Inserts/splits never touched the pool (Section 4: maintenance I/O
        # is not counted).
        assert pool.stats.accesses == 0

    def test_repeated_query_hits_buffer(self):
        pool = BufferPool(capacity_pages=128)
        tree = make_tree(fanout=4, buffer_pool=pool)
        for m in random_motions(60, seed=2):
            tree.insert(m)
        tree.range_query(Rect(0, 0, 100, 100), 0)
        first = pool.reset_stats()
        tree.range_query(Rect(0, 0, 100, 100), 0)
        second = pool.stats
        assert first.misses > 0
        assert second.misses == 0  # everything resident now
        assert second.hits == first.accesses


class TestSplitHelper:
    def test_pick_split_sizes(self):
        motions = random_motions(10, seed=1)
        a, b = pick_split(motions, min_fill=3, t_from=0, t_to=10)
        assert len(a) >= 3 and len(b) >= 3
        assert len(a) + len(b) == 10
        assert {m.oid for m in a} | {m.oid for m in b} == {m.oid for m in motions}

    def test_pick_split_too_few_raises(self):
        with pytest.raises(IndexError_):
            pick_split(random_motions(4), min_fill=3, t_from=0, t_to=10)

    def test_split_separates_clusters(self):
        left = [Motion(i, 0, float(i), 0.0, 0.0, 0.0) for i in range(5)]
        right = [Motion(10 + i, 0, 100.0 + i, 0.0, 0.0, 0.0) for i in range(5)]
        a, b = pick_split(left + right, min_fill=2, t_from=0, t_to=10)
        groups = {frozenset(m.oid for m in a), frozenset(m.oid for m in b)}
        assert frozenset(m.oid for m in left) in groups
        assert frozenset(m.oid for m in right) in groups

    def test_bound_of_entries(self):
        motions = [Motion(0, 0, 0, 0, 0, 0), Motion(1, 0, 10, 5, 0, 0)]
        bound = bound_of_entries(motions, t_ref=0)
        r = bound.rect_at(0)
        assert (r.x1, r.y1, r.x2, r.y2) == (0, 0, 10, 5)


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


def loop_choice(children, motion, t_from, t_to):
    """The scalar choose-subtree loop: key (enlargement, base), first minimum."""
    best, best_key = None, None
    for index, child in enumerate(children):
        base = child.bound.integral_area(t_from, t_to)
        grown = child.bound.enlarged_integral(motion, t_from, t_to)
        key = (grown - base, base)
        if best_key is None or key < best_key:
            best, best_key = index, key
    return best


class TestColumnarArithmetic:
    @settings(max_examples=150, deadline=None)
    @given(motion_lists(max_size=30), st.integers(min_value=9, max_value=40))
    def test_leaf_bound_equals_extend_motion_loop(self, motions, t_ref):
        leaf = Node(0, level=0, t_ref=0.0)
        leaf.set_entries(list(motions), float(t_ref))
        assert leaf.bound == bound_of_entries(motions, float(t_ref))
        # ... and again from the columns the leaf kept while growing
        grown = Node(1, level=0, t_ref=float(t_ref))
        grown.columns()
        for motion in motions:
            grown.add(motion)
        grown.retighten(float(t_ref))
        assert grown.bound == leaf.bound
        assert np.array_equal(grown.columns(), grown.fresh_columns())

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
        parent = Node(99, level=1, t_ref=t_from)
        children = []
        for page, (motions, anchor) in enumerate(zip(groups, anchors)):
            child = Node(page, level=0, t_ref=0.0)
            child.set_entries(list(motions), float(anchor))
            children.append(child)
        parent.set_entries(children, t_from)
        motion = Motion(1000, *[getattr(probe[0], f) for f in ("t_ref", "x", "y", "vx", "vy")])
        got = cheapest_enlargement(parent.columns(), motion, t_from, t_from + horizon)
        assert got == loop_choice(children, motion, t_from, t_from + horizon)

    def test_choose_subtree_first_minimum_wins_on_ties(self):
        parent = Node(9, level=1, t_ref=0.0)
        twins = []
        for page in range(3):
            child = Node(page, level=0, t_ref=0.0)
            child.set_entries([Motion(page, 0, 1.0, 1.0, 0.0, 0.0), Motion(10 + page, 0, 3.0, 2.0, 0.5, 0.0)], 0.0)
            twins.append(child)
        parent.set_entries(twins, 0.0)
        inside = Motion(50, 0, 2.0, 1.5, 0.25, 0.0)  # enlarges none of them
        assert cheapest_enlargement(parent.columns(), inside, 0.0, 10.0) == 0
        assert loop_choice(twins, inside, 0.0, 10.0) == 0


# ----------------------------------------------------------------------
# wave maintenance == sequential maintenance
# ----------------------------------------------------------------------
def contents(tree):
    return sorted((m.oid, m.t_ref, m.x, m.y, m.vx, m.vy) for m in tree.all_motions())


def leaves_of(tree):
    return [node for node in tree.root.subtree_nodes() if node.is_leaf]


class TestWaveMaintenance:
    def build_pair(self, n=120, fanout=8):
        motions = random_motions(n, seed=5)
        pair = (make_tree(fanout=fanout), make_tree(fanout=fanout))
        for tree in pair:
            for motion in motions:
                tree.insert(motion)
        return pair

    def test_wave_underfilling_several_leaves_and_emptying_one(self):
        sequential, wave = self.build_pair()
        min_fill = wave._min_fill_leaf
        leaves = leaves_of(wave)
        assert len(leaves) >= 8
        doomed = [m.oid for m in leaves[0].entries]  # this leaf is emptied
        for leaf in leaves[1:5]:  # these end one short of the minimum fill
            doomed += [m.oid for m in leaf.entries[: len(leaf.entries) - min_fill + 1]]
        assert 2 * len(doomed) < len(wave)  # below the repack threshold
        by_oid = {m.oid: m for m in wave.all_motions()}
        deletes = [DeleteUpdate(0, by_oid[oid]) for oid in doomed]
        wave.on_delete_batch(deletes)
        for delete in deletes:
            sequential.on_delete(delete)
        wave.validate()
        sequential.validate()
        assert contents(wave) == contents(sequential)
        assert len(wave) == 120 - len(doomed)
        # the traversal and the leaf bound read rows: they must stay contiguous
        assert all(leaf.columns().flags["C_CONTIGUOUS"] for leaf in leaves_of(wave))

    def test_report_wave_moving_whole_leaves_away(self):
        sequential, wave = self.build_pair()
        movers = [m for leaf in leaves_of(wave)[:4] for m in leaf.entries]
        pairs = [
            (DeleteUpdate(1, old), InsertUpdate(1, Motion(old.oid, 1, 500.0 + old.oid, 500.0, 0.0, 1.0)))
            for old in movers
        ]
        wave.on_report_batch(pairs)
        for delete, insert in pairs:
            sequential.on_delete(delete)
            sequential.on_insert(insert)
        wave.validate()
        assert contents(wave) == contents(sequential)

    def test_wave_dissolving_every_leaf_of_a_two_leaf_tree(self):
        tree = make_tree(fanout=20)
        motions = random_motions(21, seed=2)  # one split: two leaves under one root
        for motion in motions:
            tree.insert(motion)
        assert tree.height == 2 and len(leaves_of(tree)) == 2
        min_fill = tree._min_fill_leaf
        doomed = [
            m for leaf in leaves_of(tree) for m in leaf.entries[: len(leaf.entries) - min_fill + 1]
        ]
        assert 2 * len(doomed) < len(tree)
        tree.on_delete_batch([DeleteUpdate(0, m) for m in doomed])
        tree.validate()
        assert {m.oid for m in tree.all_motions()} == {m.oid for m in motions} - {m.oid for m in doomed}

    def test_wave_rejects_unknown_and_repeated_oids_before_mutating(self):
        _, wave = self.build_pair(n=40)
        before = contents(wave)
        known = wave.all_motions()[0]
        for bad in ([DeleteUpdate(0, known), DeleteUpdate(0, known)],
                    [DeleteUpdate(0, known), DeleteUpdate(0, Motion(999, 0, 1.0, 1.0, 0.0, 0.0))]):
            with pytest.raises(IndexError_):
                wave.on_delete_batch(bad)
            assert contents(wave) == before
            wave.validate()

    def test_bulk_load_matches_incremental_contents(self):
        motions = random_motions(300, seed=9)
        packed = make_tree(fanout=8)
        packed.bulk_load(motions)
        packed.validate()
        assert all(leaf.columns().flags["C_CONTIGUOUS"] for leaf in leaves_of(packed))
        assert contents(packed) == sorted(
            (m.oid, m.t_ref, m.x, m.y, m.vx, m.vy) for m in motions
        )
        rect = Rect(20, 20, 70, 70)
        got = sorted(m.oid for m in packed.range_query(rect, 4))
        assert got == brute_range(motions, rect, 4)


class _Trace:
    """What a datagen simulator sees instead of an ObjectTable: it records
    every tick's (delete, insert) pairs."""

    def __init__(self):
        self.tnow = 0
        self.motions = {}
        self.waves = {}

    def advance_to(self, tnow):
        self.tnow = tnow

    def motion_of(self, oid):
        return self.motions.get(oid)

    def report(self, oid, x, y, vx, vy):
        old = self.motions.get(oid)
        new = Motion(oid, self.tnow, x, y, vx, vy)
        self.motions[oid] = new
        self.waves.setdefault(self.tnow, []).append(
            (DeleteUpdate(self.tnow, old) if old is not None else None,
             InsertUpdate(self.tnow, new))
        )
        return new


def test_wave_maintained_tree_is_as_tight_as_the_sequential_one():
    """Tree-quality guard: leaf-grouped condense and wave inserts must not
    buy their speed with looser leaves.  Both trees start from one STR pack
    of the tick-60 world (by then the road traffic reports staggered, a few
    to a few dozen objects per tick) and absorb the same 50 waves."""
    domain = Rect(0.0, 0.0, 1000.0, 1000.0)
    simulator = TripSimulator(
        synthetic_metro(domain, grid_n=20, seed=7), n_objects=600, update_interval=60, seed=13
    )
    trace = _Trace()
    simulator.initialize(trace)
    simulator.run_until(trace, 60)
    start = list(trace.motions.values())
    simulator.run_until(trace, 110)
    horizon = 120
    sequential = TPRTree(horizon=horizon, fanout_override=16, tnow=60)
    wave = TPRTree(horizon=horizon, fanout_override=16, tnow=60)
    sequential.bulk_load(list(start))
    wave.bulk_load(list(start))
    for tick in range(61, 111):
        pairs = trace.waves.get(tick, [])
        assert 0 < 2 * len(pairs) < len(wave)  # never the repack path
        sequential.on_advance(tick)
        wave.on_advance(tick)
        for delete, insert in pairs:
            sequential.on_delete(delete)
            sequential.on_insert(insert)
        wave.on_report_batch(pairs)
    wave.validate()
    assert contents(wave) == contents(sequential)

    def leaf_area(tree):
        return sum(
            leaf.bound.integral_area(tree._tnow, tree._tnow + horizon)
            for leaf in leaves_of(tree)
        )

    assert leaf_area(wave) <= 1.10 * leaf_area(sequential)
