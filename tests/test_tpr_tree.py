"""Tests for the TPR-tree: structure, correctness against brute force, I/O."""

from __future__ import annotations

import dataclasses
import io
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PDRServer
from repro.baselines.bruteforce import bruteforce_from_motions
from repro.core.errors import IndexError_
from repro.core.geometry import Rect
from repro.datagen import TripSimulator, synthetic_metro
from repro.index.node import Node, retighten_all
from repro.index.tpbr import TPBR, anchored_edges
from repro.index.tree import TPRTree
from repro.motion.model import Motion
from repro.motion.table import ObjectTable
from repro.motion.updates import Columns, UpdateListener
from repro.storage.buffer import BufferPool
from repro.storage.snapshot import load_server, save_server
from repro.telemetry import TELEMETRY
from repro.telemetry import instruments as tm
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
        tree.validate()  # built over the table as it is now
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


class TestSplitHelper:
    def test_bound_of_entries(self):
        motions = [Motion(0, 0, 0, 0, 0, 0), Motion(1, 0, 10, 5, 0, 0)]
        table = ObjectTable()
        report(table, motions)
        leaf = Node(0, level=0, t_ref=0.0)
        leaf.adopt(table.rows())
        retighten_all([leaf], 0.0, table)
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
        leaf.adopt(rows[start : start + len(motions)])
        retighten_all([leaf], float(anchor), table)
        leaves.append(leaf)
        start += len(motions)
    return table, leaves


class TestColumnarArithmetic:
    @settings(max_examples=150, deadline=None)
    @given(motion_lists(max_size=30), st.integers(min_value=9, max_value=40))
    def test_leaf_bound_equals_extend_motion_loop(self, motions, t_ref):
        table, (leaf,) = leaves_over([motions], [t_ref])
        assert leaf.bound == bound_of_entries([point(m) for m in motions], float(t_ref))


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

    def test_report_wave_moving_whole_leaves_away(self):
        pair = self.build_pair()
        table, wave = pair[1]
        movers = [oid for leaf in leaves_of(wave)[:4] for oid in oids_in(table, leaf)]
        self.apply_both(pair, self.move_away(movers))

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
        """Every read after a write repacks by STR, a wave that moves most
        of the tree as much as a small one: the packing's shape is the
        table's, not the waves'."""
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
        table.report_batch(self.move_away(range(5)))  # a small wave repacks as well
        tree.validate()
        assert len(tree) == 30


# ----------------------------------------------------------------------
# writes mark the tree stale; the first read rebuilds it
# ----------------------------------------------------------------------
def spy_rebuilds(tree):
    """The rebuilds ``tree`` runs from now on, one entry each."""
    rebuilds = []
    bulk_load = tree.bulk_load

    def counted():
        rebuilds.append(threading.get_ident())
        bulk_load()

    tree.bulk_load = counted
    return rebuilds


def brute_positions(columns, rect, qt, horizon):
    """What ``range_positions_batch`` answers for one closed ``rect``: the
    positions at ``qt`` inside it of the motions predicted at ``qt``."""
    x, y = columns.positions_at(qt)
    inside = (
        (rect.x1 <= x) & (x <= rect.x2) & (rect.y1 <= y) & (y <= rect.y2)
        & (columns.t_ref + horizon >= qt)
    )
    return sorted(zip(x[inside].tolist(), y[inside].tolist()))


def batch_positions(tree, rect, qt):
    offsets, px, py = tree.range_positions_batch(
        np.array([[rect.x1, rect.y1, rect.x2, rect.y2]]), qt
    )
    assert offsets.tolist() == [0, px.size]
    return sorted(zip(px.tolist(), py.tolist()))


def test_many_writes_then_one_read_rebuild_once():
    table, tree = make_tree(fanout=4)
    rebuilds = spy_rebuilds(tree)
    repacks = tm.TPR_REPACKS.labels("fetch")
    before = repacks.value
    motions = random_motions(40, seed=3)
    report(table, motions)  # 40 one-row waves
    table.advance_to(1)
    table.report_batch([(m.oid, m.x + 1.0, m.y, m.vx, m.vy) for m in motions[:10]])
    table.retire(motions[11].oid)
    assert rebuilds == []  # writes only mark the tree stale
    rect = Rect(10, 10, 80, 80)
    with TELEMETRY.tracer.trace("read") as span:
        got = batch_positions(tree, rect, 3)
    assert got == brute_positions(table.columns(), rect, 3, tree.horizon)
    assert len(rebuilds) == 1 and repacks.value == before + 1
    (catch_up,) = span.children
    assert (catch_up.name, catch_up.attrs) == ("catch_up", {"kind": "fetch", "objects": 39})
    # every other read finds it fresh; an advance is no write
    table.advance_to(2)
    tree.range_query(rect, 2)
    tree.validate()
    assert (len(tree), tree.height, tree.node_count() > 1) == (39, 3, True)
    assert len(rebuilds) == 1
    table.report(500, 50.0, 50.0, 0.0, 0.0)
    assert tree.range_query(Rect(49, 49, 51, 51), 2) == [500]
    assert len(rebuilds) == 2


def test_racing_readers_rebuild_once_and_answer_exactly():
    """Four readers race a stale tree: the first rebuilds, the others wait
    for it on the tree's lock; every answer is exact."""
    table, tree = make_tree(fanout=4)
    motions = random_motions(300, seed=8)
    report(table, motions)
    rebuilds = []
    bulk_load = tree.bulk_load

    def slow_rebuild():
        rebuilds.append(threading.get_ident())
        time.sleep(0.05)  # the other readers arrive while it runs
        bulk_load()

    tree.bulk_load = slow_rebuild
    rect = Rect(20, 20, 70, 70)
    barrier = threading.Barrier(4, timeout=10)
    answers = [None] * 4

    def reader(i):
        barrier.wait()
        if i % 2:
            answers[i] = sorted(tree.range_query(rect, 3))
        else:
            answers[i] = batch_positions(tree, rect, 3)

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more, shorter turns: a racing check-then-build shows
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(rebuilds) == 1
    assert answers[1] == answers[3] == brute_range(motions, rect, 3)
    want = brute_positions(table.columns(), rect, 3, tree.horizon)
    assert answers[0] == answers[2] == want and want
    tree.validate()


def _small_page_server(n: int) -> PDRServer:
    """A server on 256-byte pages: 5 rows a leaf, 4 children a node."""
    with small_pages((256 - 32) // 40, 4):
        return PDRServer(small_system_config(), expected_objects=n)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 50),
    st.lists(
        st.one_of(
            st.tuples(st.just("wave"), st.floats(0.05, 1.0)),
            st.tuples(st.just("retire"), st.integers(1, 12)),
            st.tuples(st.just("advance"), st.integers(1, 4)),
            st.tuples(st.just("restore"), st.just(0)),
            st.tuples(st.just("read"), st.integers(0, 6)),
        ),
        min_size=1, max_size=10,
    ),
)
@settings(max_examples=40, deadline=None)
def test_interleaved_writes_restores_and_reads_stay_exact(seed, n, steps):
    """Waves of re-reports and first reports, retires, advances and
    snapshot restores in any order: whenever the tree is read it validates
    and its range answers equal brute force over the table."""
    rng = np.random.default_rng(seed)
    server = _small_page_server(n)

    def fresh(oid):
        x, y = rng.uniform(0.0, 100.0, size=2)
        vx, vy = rng.uniform(-2.0, 2.0, size=2)
        return (oid, float(x), float(y), float(vx), float(vy))

    def read(offset):
        tree, table = server.tree, server.table
        tree.validate()
        assert len(tree) == len(table)
        qt = server.tnow + offset
        x1, y1 = rng.uniform(-10.0, 90.0, size=2)
        w, h = rng.uniform(5.0, 70.0, size=2)
        rect = Rect(float(x1), float(y1), float(x1 + w), float(y1 + h))
        columns = table.columns()
        x, y = columns.positions_at(qt)
        inside = (rect.x1 <= x) & (x <= rect.x2) & (rect.y1 <= y) & (y <= rect.y2)
        assert sorted(tree.range_query(rect, qt)) == sorted(columns.oid[inside].tolist())
        assert batch_positions(tree, rect, qt) == brute_positions(
            columns, rect, qt, tree.horizon
        )

    server.report_batch([fresh(oid) for oid in range(n)])
    next_oid = n
    for kind, arg in steps:
        oids = server.table.columns().oid.tolist()
        if kind == "wave":
            picked = rng.permutation(oids)[: int(arg * len(oids))].tolist()
            firsts = list(range(next_oid, next_oid + int(rng.integers(0, 4))))
            next_oid += len(firsts)
            server.report_batch([fresh(int(oid)) for oid in picked + firsts])
        elif kind == "retire":
            for oid in oids[:arg]:
                assert server.retire(oid)
        elif kind == "advance":
            server.advance_to(server.tnow + arg)
        elif kind == "restore":
            image = io.BytesIO()
            save_server(server, image)
            image.seek(0)
            with small_pages((256 - 32) // 40, 4):
                server = load_server(image)
        else:
            read(arg)
    read(0)


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
    """Tree-quality guard: a tick's reports taken as one wave must leave
    leaves as tight as one-row waves do.  Both trees start from one STR pack
    of the tick-60 world (by then the road traffic reports staggered, a few
    to a few dozen objects per tick) and absorb the same 50 ticks of
    reports; each is read every tick, so each is rebuilt every tick."""
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
        assert 0 < 2 * len(reports) < len(wave)  # small waves only
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
    """A rebuild bounds each level of the tree in one gather and one
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
        """Moves re-report a share of the objects far from where they were,
        retires shrink the tree one row-wave at a time, and a drain leaves
        1-3 objects (a one-leaf tree).  After every wave each node's bound
        equals :func:`fresh_bound` (a rebuild anchors the whole tree at one
        time), the tree validates, indexes the live rows, and FR equals
        brute force."""
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
