"""Equivalence suites for the fast paths.

Families of properties:

* the band kernel equals the event-loop oracle ``refine_cell`` — ``==`` on
  every bound strip by strip, and zero symmetric difference against
  whole-domain brute force on inputs built to tie (objects on cell edges,
  coinciding stopping events, the domain boundary, integer thresholds) —
  whatever the batch looks like (bands without objects, without events,
  thresholds at or below zero) and in whatever order a band's objects come;
* the batched tree traversal returns, rect by rect, exactly what sequential
  range queries return, timestamps mixed;
* there is one write path, the wave: however a tick's reports are cut into
  consecutive waves (all one-row, one wave, random cuts — first reports,
  re-reports, a retire in between, a duplicate oid), every maintained
  structure — histogram counters, PA coefficients, table, tree contents —
  ends in exactly the same state, and recovery from the group-committed WAL
  reproduces it bit-for-bit;
* the timestamp-keyed caches return the same arrays as cold computation and
  invalidate on every mutation epoch.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import PDRServer
from repro.baselines.bruteforce import bruteforce_pdr
from repro.core.config import SystemConfig
from repro.core.geometry import Rect
from repro.core.query import IntervalPDRQuery, SnapshotPDRQuery
from repro.core.regions import RegionSet
from repro.datagen import TripSimulator, synthetic_metro
from repro.histogram.density_histogram import DensityHistogram
from repro.histogram.filter import filter_query
from repro.index.tree import TPRTree
from repro.methods.fr import FRMethod
from repro.methods.interval import evaluate_interval, evaluate_interval_fr
from repro.motion.table import ObjectTable
from repro.reliability.recovery import UpdateLog
from repro.reliability.statedir import scan_segment
from repro.reliability.validation import ReliabilityConfig
from repro.storage.buffer import BufferPool
from repro.sweep.band_sweep import BandBatch, refine_bands
from repro.sweep.plane_sweep import refine_cell

from .conftest import populate_clustered, small_system_config

finite = st.floats(
    min_value=-50.0, max_value=150.0, allow_nan=False, allow_infinity=False
)


# ----------------------------------------------------------------------
# band kernel == event-loop oracle
# ----------------------------------------------------------------------
def _batch(bands):
    """The flat batch of ``[(y1, y2, strips_x1, strips_x2, xs, ys)]`` bands."""

    def column(k, dtype=float):
        parts = [np.asarray(band[k], dtype=dtype) for band in bands]
        return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

    strips = [len(band[2]) for band in bands]
    objects = [len(band[4]) for band in bands]
    return BandBatch(
        np.array([band[0] for band in bands], dtype=float),
        np.array([band[1] for band in bands], dtype=float),
        column(2),
        column(3),
        np.repeat(np.arange(len(bands)), strips),
        np.concatenate(([0], np.cumsum(objects))).astype(np.int64),
        column(4),
        column(5),
    )


def _per_strip_oracle(bands, l, min_count):
    """Sequential ``refine_cell`` calls, one per strip, in batch order."""
    return [
        (r.x1, r.y1, r.x2, r.y2)
        for y1, y2, sx1, sx2, xs, ys in bands
        for x1, x2 in zip(sx1, sx2)
        for r in refine_cell(list(zip(xs, ys)), Rect(x1, y1, x2, y2), l, min_count)
    ]


def _bounds(result):
    return [tuple(row) for row in result.bounds]


def _random_band_case(seed):
    """Random fused bands plus the sequential per-strip oracle's answer."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 60))
    l = float(rng.uniform(0.5, 8.0))
    half = l / 2.0
    rho = float(rng.choice([0.0, 0.05, 0.2, 1.0, 3.0]))
    min_count = rho * l * l
    xs = rng.uniform(-5, 25, n)
    ys = rng.uniform(-5, 25, n)
    bands = []
    oracle = []
    for _ in range(int(rng.integers(1, 4))):
        y1 = float(rng.uniform(0, 18))
        y2 = y1 + float(rng.uniform(0.5, 4.0))
        n_strips = int(rng.integers(1, 4))
        cuts = np.sort(rng.uniform(0, 20, 2 * n_strips))
        sx1 = cuts[0::2]
        sx2 = np.maximum(cuts[1::2], cuts[0::2] + 0.1)
        # one fused fetch per band: everything inside the expanded band rect
        fy1, fy2 = y1 - half, y2 + half
        keep = (
            (xs >= sx1.min() - half)
            & (xs <= sx2.max() + half)
            & (ys >= fy1)
            & (ys <= fy2)
        )
        bands.append((y1, y2, sx1, sx2, xs[keep], ys[keep]))
        # the oracle fetches and refines strip by strip, like the paper
        for x1, x2 in zip(sx1, sx2):
            strip = (xs >= x1 - half) & (xs <= x2 + half) & (ys >= fy1) & (ys <= fy2)
            positions = list(zip(xs[strip], ys[strip]))
            for r in refine_cell(positions, Rect(x1, y1, x2, y2), l, min_count):
                oracle.append((r.x1, r.y1, r.x2, r.y2))
    return bands, l, min_count, oracle


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_band_kernel_matches_per_strip_oracle(seed):
    bands, l, min_count, oracle = _random_band_case(seed)
    assert _bounds(refine_bands(_batch(bands), l, min_count)) == oracle


# Batches on a half-unit lattice with l a whole number: objects exactly l
# apart (one's exit is another's enter), duplicate x's (tied events), strip
# edges on events, bands with strips but no objects, bands whose objects all
# sit beyond the y-reach, and thresholds at or below zero (full-height
# emissions between swept ones) all come up by construction.
lattice = st.integers(0, 24).map(lambda k: k * 0.5)


@st.composite
def lattice_band(draw):
    y1 = draw(st.integers(0, 8).map(float))
    y2 = y1 + draw(st.sampled_from([0.5, 1.0, 2.0]))
    edges = sorted(draw(st.sets(lattice, min_size=2, max_size=6)))
    edges = edges[: len(edges) // 2 * 2]
    objects = draw(st.lists(st.tuples(lattice, lattice), max_size=12))
    beyond_reach = draw(st.booleans())
    xs = [x for x, _ in objects]
    ys = [y + 100.0 if beyond_reach else y for _, y in objects]
    return (y1, y2, edges[0::2], edges[1::2], xs, ys)


_EMPTY_BAND = (2.0, 3.0, [1.0, 6.0], [4.0, 9.0], [], [])
_UNREACHABLE_BAND = (2.0, 3.0, [1.0], [9.0], [3.0, 5.0], [40.0, -40.0])
_TIED_BAND = (4.0, 5.0, [1.0, 7.0], [5.0, 11.0], [2.0, 4.0, 4.0, 6.0, 8.0], [4.5] * 5)
# With l = 2, squares that open or close exactly on an edge of the band
# [4, 5): enter == y1, exit == y1, enter == y2, exit == y2 — one object per
# band, then all four in one.
_ON_EDGE_YS = [5.0, 3.0, 6.0, 4.0]
_ON_EDGE_BANDS = [(4.0, 5.0, [1.0], [9.0], [4.0], [y]) for y in _ON_EDGE_YS]
_ALL_ON_EDGE_BAND = (4.0, 5.0, [1.0], [9.0], [3.0, 4.0, 5.0, 6.0], _ON_EDGE_YS)
# With l = 1, a band taller than l: both objects enter *and* exit inside it.
_TALL_BAND = (2.0, 4.0, [1.0], [9.0], [4.0, 4.5], [3.0, 2.5])
# Duplicate (x, y) objects: tied X events and, where all five are active, Y
# events that tie with opposite signs (+3 and -2 at y = 4.5 for l = 2).
_DUPLICATES_BAND = (4.0, 5.0, [1.0], [9.0], [3.0] * 3 + [4.0] * 2, [5.5] * 3 + [3.5] * 2)


@settings(max_examples=150, deadline=None)
@given(
    bands=st.lists(lattice_band(), min_size=1, max_size=4),
    l=st.sampled_from([1.0, 2.0, 3.0]),
    count=st.integers(-1, 4),
)
@example(bands=[_EMPTY_BAND], l=2.0, count=0)
@example(bands=[_EMPTY_BAND, _UNREACHABLE_BAND], l=2.0, count=1)
@example(bands=[_EMPTY_BAND, _UNREACHABLE_BAND, _TIED_BAND], l=2.0, count=2)
@example(bands=[_TIED_BAND, _EMPTY_BAND, _TIED_BAND], l=2.0, count=-1)
@example(bands=_ON_EDGE_BANDS, l=2.0, count=1)
@example(bands=[_ALL_ON_EDGE_BAND], l=2.0, count=1)
@example(bands=[_ALL_ON_EDGE_BAND, _EMPTY_BAND], l=2.0, count=2)
@example(bands=[_TALL_BAND], l=1.0, count=1)
@example(bands=[_TALL_BAND, _TIED_BAND], l=1.0, count=2)
@example(bands=[_DUPLICATES_BAND], l=2.0, count=3)
@example(bands=[_DUPLICATES_BAND, _ALL_ON_EDGE_BAND], l=2.0, count=4)
def test_band_kernel_matches_oracle_whatever_the_batch(bands, l, count):
    """Only the last band having events, a band with nothing to sweep
    between two that have, ``min_count <= 0``: the flat arrays must come out
    as the per-strip oracle emits them, in its order."""
    min_count = float(count)
    result = refine_bands(_batch(bands), l, min_count)
    assert _bounds(result) == _per_strip_oracle(bands, l, min_count)
    # rect -> band map, against the definition
    want_band = [
        b
        for b, (y1, y2, sx1, sx2, xs, ys) in enumerate(bands)
        for x1, x2 in zip(sx1, sx2)
        for _ in refine_cell(list(zip(xs, ys)), Rect(x1, y1, x2, y2), l, min_count)
    ]
    assert result.band_of_rect.tolist() == want_band
    assert result.segments >= sum(len(band[2]) for band in bands)  # one per strip at least


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), shuffle=st.integers(0, 2**32 - 1))
def test_band_kernel_ignores_object_order_within_a_band(seed, shuffle):
    """The active set of a segment is read as a contiguous range of the
    band's x-sorted objects: the order the index returned them in (and the
    order of equal x's) must not show in a single output float."""
    bands, l, min_count, _ = _random_band_case(seed)
    rng = np.random.default_rng(shuffle)
    shuffled = []
    for y1, y2, sx1, sx2, xs, ys in bands:
        # duplicate some x's so that ties are permuted too
        xs = np.where(rng.random(xs.size) < 0.3, np.round(xs), xs)
        order = rng.permutation(xs.size)
        shuffled.append(((y1, y2, sx1, sx2, xs, ys), (y1, y2, sx1, sx2, xs[order], ys[order])))
    a = refine_bands(_batch([pair[0] for pair in shuffled]), l, min_count)
    b = refine_bands(_batch([pair[1] for pair in shuffled]), l, min_count)
    for got, want in zip(a, b):
        assert np.array_equal(got, want)


def _active_pairs(bands, l, min_count):
    """Sum, over the sweep-eligible segments of every strip, of the active
    count at the segment's left edge — the oracle's admit/expire walk,
    ``|{enter <= e < exit}|`` — i.e. how many (segment, object) pairs the
    Y-sweeps are about."""
    half = l / 2.0
    total = 0
    for y1, y2, sx1, sx2, xs, ys in bands:
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        xs = xs[(ys - half < y2 + half) & (ys + half > y1 - half)]
        stops = np.concatenate([xs - half, xs + half])
        for x1, x2 in zip(sx1, sx2):
            edges = np.unique(np.concatenate([[x1], stops[(x1 < stops) & (stops < x2)]]))
            active = ((xs - half <= edges[:, None]) & (edges[:, None] < xs + half)).sum(axis=1)
            total += int(active[(active > 0) & (active >= min_count - 1e-9)].sum())
    return total


def test_only_objects_that_open_or_close_inside_the_band_are_expanded():
    """A band whose objects all cover it whole has no Y-event: every swept
    segment is emitted full-height or not at all, by the threshold alone.
    A band whose objects all open or close inside it has one per pair."""
    l = 3.0
    cover = (4.0, 5.0, [0.0], [10.0], [2.0, 3.0, 7.0], [4.5, 4.0, 5.0])
    for count, emitted in ((1, True), (2, True), (3, False)):
        result = refine_bands(_batch([cover]), l, float(count))
        assert _bounds(result) == _per_strip_oracle([cover], l, float(count))
        assert result.events == 0 and bool(_bounds(result)) == emitted
        assert {(y1, y2) for _, y1, _, y2 in _bounds(result)} <= {(4.0, 5.0)}
    edge = (4.0, 5.0, [0.0], [10.0], [2.0, 3.0, 3.0, 7.0], [2.9, 6.1, 6.4, 3.3])
    for count in (1, 2, 3):
        result = refine_bands(_batch([edge]), l, float(count))
        assert _bounds(result) == _per_strip_oracle([edge], l, float(count))
        assert result.events == _active_pairs([edge], l, float(count)) > 0


def test_band_kernel_with_more_bands_than_a_16_bit_index_holds():
    """The (band, value) orders sort the band index with numpy's radix sort
    while the batch's band count fits 16 bits and with a wider stable sort
    beyond (interval FR batches rows x timestamps bands).  A batch of
    2**16 + 3 bands, all empty but three — the last one among them: the
    rectangles of the three bands alone, under their own band indices."""
    populated = [_TIED_BAND, _ALL_ON_EDGE_BAND, _DUPLICATES_BAND]
    small = _batch(populated)
    n = (1 << 16) + 3
    where = np.array([5, 40_000, n - 1])
    y1, y2, objects = np.zeros(n), np.ones(n), np.zeros(n, dtype=np.int64)
    y1[where], y2[where], objects[where] = small.y1, small.y2, np.diff(small.offsets)
    wide = small._replace(
        y1=y1, y2=y2, strip_band=where[small.strip_band],
        offsets=np.concatenate(([0], np.cumsum(objects))),
    )
    for count in (-1.0, 1.0, 2.0, 3.0):
        a = refine_bands(small, 2.0, count)
        b = refine_bands(wide, 2.0, count)
        assert _bounds(a) == _per_strip_oracle(populated, 2.0, count)
        assert np.array_equal(a.bounds, b.bounds)
        assert np.array_equal(where[a.band_of_rect], b.band_of_rect)
        assert (a.segments, a.events) == (b.segments, b.events)
    assert a.bounds.shape[0] > 0


def test_convoy_is_exact_and_expands_events_not_pairs(monkeypatch):
    """300 objects inside one l-square, spread over three rows of cells: the
    centre cell is accepted, the eight around it are the candidate block,
    and every segment of its three bands is active with most of the convoy
    — the (segment, object) pair count is quadratic in the group size.  The
    answer is brute force's, and what the sweep expands stays under half
    the pairs (only the top and the bottom third of the convoy open or close
    their square inside a band, and in one band each)."""
    from repro.methods import fr as fr_module

    server = PDRServer(small_system_config(), expected_objects=400)
    rng = np.random.default_rng(19)
    server.report_batch(
        [
            (oid, float(x), float(y), 0.0, 0.0)
            for oid, (x, y) in enumerate(rng.uniform(40.0, 55.0, (300, 2)))
        ]
    )
    batches = []

    def spy(batch, l, min_count):
        batches.append(batch)
        return refine_bands(batch, l, min_count)

    monkeypatch.setattr(fr_module, "refine_bands", spy)
    l, rho = 20.0, 250 / 400.0
    got = server.query("fr", qt=server.tnow, l=l, rho=rho)
    want = server.query("bruteforce", qt=server.tnow, l=l, rho=rho)
    assert not got.regions.is_empty()
    assert got.regions.symmetric_difference_area(want.regions) == 0.0
    stats = got.stats
    assert (stats.accepted_cells, stats.candidate_cells) == (1, 8)
    assert stats.extra["refine_bands"] == 3.0
    (batch,) = batches
    bands = [
        (
            batch.y1[b], batch.y2[b],
            batch.strip_x1[batch.strip_band == b], batch.strip_x2[batch.strip_band == b],
            batch.px[batch.offsets[b] : batch.offsets[b + 1]],
            batch.py[batch.offsets[b] : batch.offsets[b + 1]],
        )
        for b in range(3)
    ]
    pairs = _active_pairs(bands, l, rho * l * l)
    assert pairs > 50 * 300  # hundreds of segments, most of the convoy in each
    assert 0 < stats.extra["refine_events"] <= 0.5 * pairs


# A world built to tie.  Cell edge 4 and unit lattice steps put objects on
# histogram-cell edges, make stopping events ``o ± l/2`` land on one another
# and on strip ends, put objects on both edges of the half-open domain, and
# ``rho * l**2`` is an integer count — every comparison the sweep makes is
# exercised at equality.
_TIE_CELL = 4.0
_TIE_M = 6
_TIE_SIDE = _TIE_CELL * _TIE_M
tie_coord = st.one_of(
    st.integers(0, int(_TIE_SIDE)).map(float),
    st.floats(min_value=-1.0, max_value=_TIE_SIDE + 1.0, allow_nan=False),
)


@settings(max_examples=120, deadline=None)
@given(
    points=st.lists(st.tuples(tie_coord, tie_coord), max_size=40),
    l=st.sampled_from([2.0, 3.0, 4.0, 6.0, 8.0]),
    count=st.integers(0, 5),
    mask_bits=st.integers(0, 2 ** (_TIE_M * _TIE_M) - 1),
)
def test_band_kernel_matches_bruteforce_on_ties(points, l, count, mask_bits):
    """Refining a candidate mask and its complement covers the domain, so
    the kernel's output must be brute force's point set exactly."""
    domain = Rect(0.0, 0.0, _TIE_SIDE, _TIE_SIDE)
    query = SnapshotPDRQuery(rho=count / (l * l), l=l, qt=0)
    inside = [p for p in points if domain.contains_point(*p)]
    xs = [p[0] for p in inside]
    ys = [p[1] for p in inside]
    mask = np.array(
        [(mask_bits >> k) & 1 for k in range(_TIE_M * _TIE_M)], dtype=bool
    ).reshape(_TIE_M, _TIE_M)
    bands = []
    for part in (mask, ~mask):
        for j in range(_TIE_M):
            cols = np.flatnonzero(part[:, j])
            if cols.size == 0:
                continue
            runs = np.split(cols, np.flatnonzero(np.diff(cols) > 1) + 1)
            bands.append(
                (
                    j * _TIE_CELL,
                    (j + 1) * _TIE_CELL,
                    [run[0] * _TIE_CELL for run in runs],
                    [(run[-1] + 1) * _TIE_CELL for run in runs],
                    xs,
                    ys,
                )
            )
    result = refine_bands(_batch(bands), l, query.min_count)
    assert _bounds(result) == _per_strip_oracle(bands, l, query.min_count)
    # The decompositions legitimately differ (brute force has no cell
    # seams); the raster breaks on the rect edges themselves, so a zero
    # symmetric difference means identical point sets.
    want = bruteforce_pdr(inside, domain, query).regions
    got = RegionSet.from_bounds(result.bounds)
    assert got.symmetric_difference_area(want) == 0.0


def _random_tree(rng, **tree_options):
    table = ObjectTable()
    tree = TPRTree(table, horizon=10.0, **tree_options)
    table.add_listener(tree)
    for oid in range(int(rng.integers(1, 150))):
        table.report(
            oid,
            float(rng.uniform(0, 100)), float(rng.uniform(0, 100)),
            float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)),
        )
    return table, tree


def _assert_fetch_matches_range_queries(table, tree, rects, qts, fetched):
    """CSR columns == one ``range_query`` + ``position_at`` per rect: the
    same counts, and per rect the same positions bit for bit (a rect's
    order within its slice is unspecified, so both sides are sorted)."""
    offsets, px, py = fetched
    assert offsets[0] == 0 and offsets[-1] == px.size == py.size
    want = [0]
    for r, (window, qt) in enumerate(zip(rects, qts)):
        sequential = tree.range_query(Rect(*window), qt, charge_io=False)
        want.append(want[-1] + len(sequential))
        expected = sorted(table.motion_of(oid).position_at(qt) for oid in sequential)
        got = sorted(zip(px[offsets[r] : offsets[r + 1]], py[offsets[r] : offsets[r + 1]]))
        assert np.array_equal(np.array(got).reshape(-1, 2), np.array(expected).reshape(-1, 2))
    assert np.array_equal(offsets, want)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_batch_traversal_matches_sequential(seed):
    """One shared traversal answers every rect exactly like N traversals."""
    rng = np.random.default_rng(seed)
    table, tree = _random_tree(rng)
    n_rects = int(rng.integers(0, 10))
    corner = rng.uniform(0, 90, (n_rects, 2))
    rects = [np.hstack([corner, corner + rng.uniform(1, 30, (n_rects, 2))])]
    qts = [rng.integers(0, 5, n_rects).astype(float)]
    # Windows spanned by two objects' own positions put objects on their
    # edges: containment must be closed on all four.
    motions = table.columns()
    for qt in rng.integers(0, 5, int(rng.integers(0, 5))).astype(float):
        x, y = motions.positions_at(qt)
        pair = rng.integers(0, len(motions), 2)
        rects.append([[x[pair].min(), y[pair].min(), x[pair].max(), y[pair].max()]])
        qts.append([qt])
    rects, qts = np.vstack(rects), np.concatenate(qts)
    fetched = tree.range_positions_batch(rects, qts)
    _assert_fetch_matches_range_queries(table, tree, rects, qts, fetched)


class _PageLog(BufferPool):
    """A buffer pool that remembers every page it is asked for."""

    def __init__(self) -> None:
        super().__init__(capacity_pages=1 << 20)
        self.pages = []

    def access(self, page_id: int) -> bool:
        self.pages.append(page_id)
        return super().access(page_id)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_batch_fetch_touches_the_pages_of_its_range_queries(seed):
    """The shared descent reads each page at most once, and exactly the
    pages the per-rect range queries read between them."""
    rng = np.random.default_rng(seed)
    log = _PageLog()
    table, tree = _random_tree(rng, fanout_override=8, buffer_pool=log)
    n_rects = int(rng.integers(1, 10))
    corner = rng.uniform(0, 90, (n_rects, 2))
    rects = np.hstack([corner, corner + rng.uniform(1, 30, (n_rects, 2))])
    qts = rng.integers(0, 5, n_rects).astype(float)
    tree.range_positions_batch(rects, qts)
    batch, log.pages = log.pages, []
    for window, qt in zip(rects, qts):
        tree.range_query(Rect(*window), qt)
    assert len(batch) == len(set(batch))
    assert set(batch) == set(log.pages)


@pytest.fixture(scope="module")
def fr_world():
    server = PDRServer(small_system_config(), expected_objects=200)
    populate_clustered(server, 150, seed=5)
    return server


def _region_tuples(result):
    return [(r.x1, r.y1, r.x2, r.y2) for r in result.regions]


def test_banded_fr_matches_per_cell_fr(fr_world):
    """The banded pipeline equals the paper's per-cell refinement — which,
    run over one domain-sized cell with every object, is brute force."""
    server = fr_world
    qt = server.tnow + 1
    banded = FRMethod(server.histogram, server.tree)
    for varrho in (0.8, 1.2, 2.0, 3.5):
        query = server.make_query(qt=qt, varrho=varrho)
        a = banded.query(query)
        b = server.evaluate("bruteforce", query)
        # Same region *union*, exactly: the raster in _combine_area breaks
        # on the rect edges themselves, so zero symmetric difference means
        # identical point sets — the decompositions legitimately differ
        # (a dense run crossing a cell seam is one fused rect, not two).
        assert a.regions.symmetric_difference_area(b.regions) == 0.0
        assert a.regions.area() == pytest.approx(b.regions.area(), rel=0, abs=1e-9)


def test_fused_rows_dedup_adjacent_cells(fr_world):
    """Adjacent candidate cells fuse into one strip: one fetch per band row,
    no duplicated or overlapping refinement output at the seam."""
    server = fr_world
    query = server.make_query(qt=server.tnow + 1, varrho=1.2)
    result = FRMethod(server.histogram, server.tree).query(query)
    extra = result.stats.extra
    assert (
        extra["refine_bands"] < result.stats.candidate_cells
    ), "fusion must fetch fewer bands than there are candidate cells"
    rects = _region_tuples(result)
    assert len(rects) == len(set(rects)), "fused strips must not emit duplicates"
    # the answer is disjoint by construction; area() takes the O(n) path
    assert result.regions.area() == pytest.approx(
        sum((x2 - x1) * (y2 - y1) for x1, y1, x2, y2 in rects)
    )


def test_deadline_is_checked_per_planned_band_then_before_fetch_and_sweep(
    fr_world, monkeypatch
):
    """One cooperative check per planned band while fusing, one before the
    fetch, one before the sweep — so a deadline that runs out during the
    fetch is not billed the sweep as well."""
    from repro.core.errors import DeadlineExceededError
    from repro.methods import fr as fr_module
    from repro.reliability.deadline import Deadline
    from repro.reliability.faults import VirtualClock

    server = fr_world
    query = server.make_query(qt=server.tnow + 1, varrho=1.2)
    candidate = filter_query(server.histogram, query).candidate
    planned = int(candidate.any(axis=0).sum())
    assert planned > 0

    class CountingDeadline(Deadline):
        checks = 0

        def check(self, site=""):
            CountingDeadline.checks += 1
            super().check(site)

    clock = VirtualClock()
    fr = FRMethod(server.histogram, server.tree)
    fr.refine([(query.qt, candidate)], query.l, query.min_count, CountingDeadline(1.0, clock))
    assert CountingDeadline.checks == planned + 2

    fetch = server.tree.range_positions_batch

    def slow_fetch(rects, qts, charge_io=True):
        clock.sleep(5.0)
        return fetch(rects, qts, charge_io)

    def no_sweep(*_args):
        raise AssertionError("the sweep ran after the deadline had expired")

    monkeypatch.setattr(server.tree, "range_positions_batch", slow_fetch)
    monkeypatch.setattr(fr_module, "refine_bands", no_sweep)
    with pytest.raises(DeadlineExceededError, match="at fr.refine"):
        FRMethod(server.histogram, server.tree).refine(
            [(query.qt, candidate)], query.l, query.min_count, Deadline(1.0, clock)
        )


# ----------------------------------------------------------------------
# interval FR rides the same refinement routine
# ----------------------------------------------------------------------
def _interval(server, varrho, qt1, qt2):
    base = server.make_query(qt=qt1, varrho=varrho)
    return IntervalPDRQuery(rho=base.rho, l=base.l, qt1=qt1, qt2=qt2)


def test_interval_fr_is_the_union_of_snapshot_answers(fr_world):
    """Whatever the same ``FRMethod`` answered before: a snapshot query at a
    lower threshold first, then the interval queries with ϱ ascending."""
    server = fr_world
    fr = FRMethod(server.histogram, server.tree)
    fr.query(server.make_query(qt=server.tnow + 1, varrho=0.8))
    for varrho in (1.2, 2.0, 3.0):
        query = _interval(server, varrho, server.tnow, server.tnow + 4)
        got = evaluate_interval_fr(fr, query)
        snapshot_fr = FRMethod(server.histogram, server.tree)
        for want in (
            evaluate_interval(snapshot_fr.query, query),
            evaluate_interval(lambda s: server.evaluate("bruteforce", s), query),
        ):
            assert got.regions.symmetric_difference_area(want.regions) == 0.0


def test_two_timestamp_refine_is_one_fetch_of_per_rect_range_queries(
    fr_world, monkeypatch
):
    """Interval FR hands ``refine`` one entry per timestamp.  Bands of
    different ``qt`` go down the tree together (they share leaves), yet each
    rect's slice of the flat fetch is its own range query at its own time,
    and the batch refines to what the entries refine to one by one."""
    server = fr_world
    base = server.make_query(qt=server.tnow, varrho=1.2)
    entries = []
    for qt in (server.tnow, server.tnow + 3):
        query = SnapshotPDRQuery(rho=base.rho, l=base.l, qt=qt)
        entries.append((qt, filter_query(server.histogram, query).candidate))
    calls = []
    fetch = server.tree.range_positions_batch

    def spy(rects, qts, charge_io=True):
        calls.append((rects, qts, fetch(rects, qts, charge_io)))
        return calls[-1][2]

    monkeypatch.setattr(server.tree, "range_positions_batch", spy)
    together = FRMethod(server.histogram, server.tree).refine(
        entries, base.l, base.min_count
    )
    ((rects, qts, fetched),) = calls
    assert sorted(set(qts)) == [server.tnow, server.tnow + 3]
    _assert_fetch_matches_range_queries(server.table, server.tree, rects, qts, fetched)
    apart = [
        FRMethod(server.histogram, server.tree).refine([entry], base.l, base.min_count)
        for entry in entries
    ]
    assert together.bounds.shape[0] > 0
    assert np.array_equal(together.bounds, np.concatenate([r.bounds for r in apart]))
    assert together.objects_examined == sum(r.objects_examined for r in apart)


@pytest.fixture(scope="module")
def road_world():
    """Road-network trips at the default configuration, 60 ticks in."""
    config = SystemConfig()
    server = PDRServer(config, expected_objects=600)
    simulator = TripSimulator(
        synthetic_metro(config.domain, grid_n=40, seed=7),
        n_objects=600, update_interval=config.max_update_interval, seed=101,
    )
    simulator.initialize(server.table)
    simulator.run_until(server.table, 60)
    return server


def test_fr_answer_ignores_the_fetch_order(road_world, monkeypatch):
    """A rect's positions come back in no promised order: reversing every
    rect's slice of the fetch leaves the answers and the work counters of
    the ten benchmark query shapes (l in {30, 60}, varrho 1..5) as they are."""
    server = road_world
    window = server.config.prediction_window
    queries = [
        server.make_query(qt=server.tnow + (3 * i) % (window + 1), l=l, varrho=varrho)
        for i, (l, varrho) in enumerate((l, v) for l in (30.0, 60.0) for v in range(1, 6))
    ]

    def answers():
        fr = FRMethod(server.histogram, server.tree)
        return [fr.query(query) for query in queries]

    def outcome(result):
        extra = result.stats.extra
        counters = (extra["refine_segments"], extra["refine_events"])
        return counters + (result.stats.objects_examined,)

    as_fetched = answers()
    fetch = server.tree.range_positions_batch

    def reversed_fetch(rects, qts, charge_io=True):
        offsets, px, py = fetch(rects, qts, charge_io)
        rect_of = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
        mirror = offsets[rect_of] + offsets[rect_of + 1] - 1 - np.arange(px.size)
        return offsets, px[mirror], py[mirror]

    monkeypatch.setattr(server.tree, "range_positions_batch", reversed_fetch)
    assert sum(outcome(result)[0] for result in as_fetched) > 0
    for want, got in zip(as_fetched, answers()):
        assert np.array_equal(want.regions.bounds, got.regions.bounds)
        assert outcome(want) == outcome(got)


# ----------------------------------------------------------------------
# one write path: however a tick is cut into waves, the state is the same
# ----------------------------------------------------------------------
def _wave(rng, n, oid_base=0, domain=100.0):
    return [
        (
            oid_base + i,
            float(rng.uniform(1.0, domain - 1.0)),
            float(rng.uniform(1.0, domain - 1.0)),
            float(rng.uniform(-0.5, 0.5)),
            float(rng.uniform(-0.5, 0.5)),
        )
        for i in range(n)
    ]


def _ticks(rng):
    """Three ticks of ops, in order: ``("report", (oid, x, y, vx, vy))`` and
    ``("retire", oid)``.  First reports, re-reports, an oid reported twice
    in one tick (forces a wave split), a retire in the middle of a tick
    followed by a first report (which takes the freed row), and fast movers
    that leave the domain inside the horizon."""

    def report(oid):
        fast = rng.random() < 0.25
        speed = 8.0 if fast else 0.5
        return ("report", (
            int(oid),
            float(rng.uniform(1.0, 99.0)), float(rng.uniform(1.0, 99.0)),
            float(rng.uniform(-speed, speed)), float(rng.uniform(-speed, speed)),
        ))

    ticks = [(0, [report(oid) for oid in range(24)])]
    live = set(range(24))
    for tick in (1, 2):
        oids = rng.permutation(34)[: int(rng.integers(6, 20))].tolist()
        ops = [report(oid) for oid in oids]
        ops.insert(int(rng.integers(1, len(ops) + 1)), report(oids[0]))  # a duplicate
        live.update(oids)
        victim = int(rng.choice(sorted(live - set(oids))))
        at = int(rng.integers(0, len(ops) + 1))
        ops[at:at] = [("retire", victim), report(100 + tick)]
        live.discard(victim)
        ticks.append((int(rng.integers(1, 3)), ops))
    return ticks


def _drive(server, ticks, cut):
    """Apply ``ticks``; each run of consecutive reports is cut into waves of
    the sizes ``cut(run length)`` yields (``None``: per-object ``report``)."""

    def flush(run):
        if cut is None:
            for report in run:
                assert server.report(*report) is not None
            return
        start = 0
        for size in cut(len(run)):
            assert None not in server.report_batch(run[start : start + size])
            start += size
        assert start == len(run)

    for advance, ops in ticks:
        if advance:
            server.advance_to(server.tnow + advance)
        run = []
        for kind, payload in ops:
            if kind == "retire":
                flush(run)
                run = []
                assert server.retire(payload)
            else:
                run.append(payload)
        flush(run)


def _random_cuts(rng):
    def cut(n):
        sizes = []
        while sum(sizes) < n:
            sizes.append(int(rng.integers(1, n - sum(sizes) + 1)))
        return sizes

    return cut


def _table_contents(server):
    return sorted(server.table.columns().tuples())


def _tree_contents(server):
    rows = server.tree.root.subtree_rows()
    return sorted(server.table.columns(rows).tuples())


def _assert_same_state(a, b):
    # Histogram counters are integers: exact equality, slot labels included.
    assert np.array_equal(a.histogram._counts, b.histogram._counts)
    assert np.array_equal(a.histogram._slot_time, b.histogram._slot_time)
    # PA coefficients are floats: every wave applies delete_i, insert_i,
    # delete_i+1, ... in report order, so equality is bitwise.
    assert np.array_equal(a.pa._coeffs, b.pa._coeffs)
    assert np.array_equal(a.pa._slot_time, b.pa._slot_time)
    assert a.tnow == b.tnow and _table_contents(a) == _table_contents(b)
    # The tree's contract is its contents plus structural invariants; wave
    # size does shape it (Z-order, repacks).
    for server in (a, b):
        server.tree.validate()
        assert _tree_contents(server) == _table_contents(server)
        assert server.audit(raise_on_violation=False) == []
        assert server._tick_oids == a._tick_oids


def _assert_fr_is_exact(server):
    for qt in (server.tnow, server.tnow + 1):
        for rho in (0.02, 0.05):
            got = server.query("fr", qt=qt, rho=rho)
            want = server.query("bruteforce", qt=qt, rho=rho)
            assert got.regions.symmetric_difference_area(want.regions) == 0.0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_report_batch_states_bit_identical(seed):
    """Any partition of a tick's reports into consecutive waves — per-object
    ``report`` calls, whole runs, random cuts — leaves the same state."""
    rng = np.random.default_rng(seed)
    ticks = _ticks(rng)
    servers = []
    for cut in (None, lambda n: [1] * n, lambda n: [n] if n else [], _random_cuts(rng)):
        server = PDRServer(small_system_config(), expected_objects=200)
        _drive(server, ticks, cut)
        servers.append(server)
    for other in servers[1:]:
        _assert_same_state(servers[0], other)
        assert other.dead_letters.total == 0
    _assert_fr_is_exact(servers[0])
    _assert_fr_is_exact(servers[-1])
    for method in ("pa", "dh-optimistic"):
        answers = [
            set(server.query(method, qt=server.tnow + 1, rho=0.05).regions)
            for server in servers
        ]
        assert all(answer == answers[0] for answer in answers)


@pytest.fixture
def report_waves():
    rng = np.random.default_rng(42)
    return [_wave(rng, 40), _wave(rng, 40)]


def test_report_batch_results_align_with_input(report_waves):
    server = PDRServer(small_system_config(), expected_objects=200)
    wave = report_waves[0]
    results = server.report_batch(wave)
    assert len(results) == len(wave)
    for (oid, x, y, _vx, _vy), motion in zip(wave, results):
        assert motion is not None
        assert (motion.oid, motion.x, motion.y) == (oid, x, y)


def test_report_batch_rejects_like_sequential():
    config = small_system_config()
    sequential = PDRServer(config, expected_objects=50)
    batched = PDRServer(config, expected_objects=50)
    wave = [
        (0, 10.0, 10.0, 0.0, 0.0),
        (1, -5.0, 10.0, 0.0, 0.0),  # out of domain: rejected
        (2, 20.0, 20.0, float("nan"), 0.0),  # malformed: rejected
        (3, 30.0, 30.0, 0.1, 0.1),
    ]
    seq_results = [sequential.report(*r) for r in wave]
    batch_results = batched.report_batch(wave)
    assert [m is None for m in seq_results] == [m is None for m in batch_results]
    assert sequential.dead_letters.total == batched.dead_letters.total == 2
    assert dict(sequential.dead_letters.counts) == dict(batched.dead_letters.counts)
    assert np.array_equal(sequential.histogram._counts, batched.histogram._counts)
    # a report's own timestamp is checked on the per-object call only
    assert sequential.report(4, 1.0, 1.0, 0.0, 0.0, t=sequential.tnow + 1) is None
    assert sequential.dead_letters.latest.reason == "future"


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_report_batch_wal_recovery_bit_identical(seed):
    """Replay coalesces logged reports into waves of its own cut (runs of
    one tick's records): recovery ends in the live state bit for bit, and
    in the state per-object ingest gives."""
    import tempfile

    rng = np.random.default_rng(seed)
    ticks = _ticks(rng)
    rowwise = PDRServer(small_system_config(), expected_objects=200)
    _drive(rowwise, ticks, None)
    with tempfile.TemporaryDirectory() as tmp:
        live = PDRServer(
            small_system_config(),
            expected_objects=200,
            reliability=ReliabilityConfig(state_dir=tmp + "/state", fsync=False),
        )
        _drive(live, ticks[:2], _random_cuts(rng))
        live.checkpoint()  # the image carries the table's columns
        _drive(live, ticks[2:], _random_cuts(rng))
        live.close()
        recovered = PDRServer.recover(tmp + "/state")
        try:
            _assert_same_state(live, recovered)
            _assert_same_state(rowwise, recovered)
            assert recovered.wal_lsn == live.wal_lsn
            _assert_fr_is_exact(recovered)
        finally:
            recovered.close()


def test_retire_then_first_report_in_one_tick_reuses_the_freed_row():
    server = PDRServer(small_system_config(), expected_objects=200)
    populate_clustered(server, 60)
    server.advance_to(1)
    row = server.table.rows()[17]
    assert server.retire(17)
    server.report(900, 31.0, 31.0, 0.1, 0.1)  # lands in the dense cluster
    assert server.table.rows()[-1] == row and len(server.table) == 60
    server.report_batch([(900, 32.0, 32.0, 0.0, 0.0), (5, 30.0, 30.0, 0.0, 0.0)])
    server.tree.validate()
    assert server.audit(raise_on_violation=False) == []
    assert _tree_contents(server) == _table_contents(server)
    assert server.histogram.total_at(server.tnow) == 60
    _assert_fr_is_exact(server)


def test_growing_past_the_initial_capacity_between_queries_changes_no_answer():
    """The columns are reallocated when the table doubles; nothing may keep
    reading the old arrays.  1000 objects, an FR query, 300 visitors that
    arrive (crossing the 1024-row capacity) and leave again, the same FR
    query: the same world, hence the same answer."""
    server = PDRServer(small_system_config(), expected_objects=2000)
    rng = np.random.default_rng(5)
    server.report_batch(_wave(rng, 1000))
    before = server.query("fr", qt=server.tnow + 1, rho=0.15)
    capacity = server.table._oid.shape[0]
    server.report_batch(_wave(rng, 300, oid_base=5000))
    assert server.table._oid.shape[0] == 2 * capacity
    crowded = server.query("fr", qt=server.tnow + 1, rho=0.15)
    assert crowded.regions.area() > before.regions.area()
    _assert_fr_is_exact(server)
    for oid in range(5000, 5300):
        assert server.retire(oid)
    after = server.query("fr", qt=server.tnow + 1, rho=0.15)
    assert not before.regions.is_empty()
    assert after.regions.symmetric_difference_area(before.regions) == 0.0
    _assert_fr_is_exact(server)
    assert server.audit(raise_on_violation=False) == []


def test_update_log_group_commit_bytes_identical(tmp_path):
    records = [
        {"op": "report", "t": 0, "oid": i, "x": 1.5 * i, "y": 2.0, "vx": 0.1, "vy": -0.2, "lsn": i + 1}
        for i in range(5)
    ]
    one_path = str(tmp_path / "one.jsonl")
    many_path = str(tmp_path / "many.jsonl")
    one = UpdateLog(one_path, fsync=False)
    for record in records:
        one.append(dict(record))
    one.close()
    many = UpdateLog(many_path, fsync=False)
    many.append_many([dict(r) for r in records])
    many.close()
    with open(one_path, "rb") as fh:
        sequential_bytes = fh.read()
    with open(many_path, "rb") as fh:
        batched_bytes = fh.read()
    assert sequential_bytes == batched_bytes
    assert scan_segment(many_path, newest=True).records == records


def test_timed_listener_forwards_batches():
    """The server wraps histogram/PA in TimedListener: a wave must reach the
    wrapped listener as the wave it is — through an attribute lookup at call
    time, so a proxy set on the inner instance (the benchmark's span
    recorder does that) is what gets called — and the timer is charged one
    update per deletion and per insertion."""
    from repro.metrics.instrument import TimedListener

    calls = []
    table = ObjectTable()
    hist = DensityHistogram(Rect(0.0, 0.0, 100.0, 100.0), m=10, horizon=4)
    timed = TimedListener(hist)
    table.add_listener(timed)
    inner = hist.on_report_batch
    hist.on_report_batch = lambda wave: (calls.append(wave), inner(wave))[1]
    table.report_batch([(i, 10.0 * i + 5.0, 20.0, 0.0, 0.0) for i in range(4)])
    table.report_batch([(0, 50.0, 50.0, 0.0, 0.0), (9, 60.0, 60.0, 0.0, 0.0)])
    table.retire(1)
    table.advance_to(1)
    assert [(len(w.deleted), len(w.inserted)) for w in calls] == [(0, 4), (1, 2), (1, 0)]
    assert timed.timer.updates == 4 + 3 + 1
    assert hist.total_at(1) == 4 and hist.tnow == 1


# ----------------------------------------------------------------------
# timestamp-keyed caches
# ----------------------------------------------------------------------
def test_prefix_cache_hits_and_invalidates(populated_server):
    server = populated_server
    hist = server.histogram
    qt = server.tnow + 1
    cold = hist.prefix_sums(qt).copy()
    misses0 = hist.cache_misses
    again = hist.prefix_sums(qt)
    assert hist.cache_misses == misses0  # pure hit
    assert np.array_equal(cold, again)
    # Any counter mutation invalidates via the epoch counter.
    server.report(9999, 50.0, 50.0, 0.0, 0.0)
    refreshed = hist.prefix_sums(qt)
    assert hist.cache_misses == misses0 + 1
    expected = np.zeros((hist.m + 1, hist.m + 1), dtype=np.int64)
    expected[1:, 1:] = (
        hist.counts_at(qt).astype(np.int64).cumsum(axis=0).cumsum(axis=1)
    )
    assert np.array_equal(refreshed, expected)


def test_block_sums_at_matches_cold_computation(populated_server):
    hist = populated_server.histogram
    qt = populated_server.tnow
    for radius in (0, 1, 2):
        cached = hist.block_sums_at(qt, radius)
        cold = DensityHistogram.block_sums(hist.prefix_sums(qt), radius)
        assert np.array_equal(cached, cold)
    hits0 = hist.cache_hits
    hist.block_sums_at(qt, 1)
    assert hist.cache_hits == hits0 + 1


def test_cache_invalidates_on_advance(populated_server):
    server = populated_server
    hist = server.histogram
    qt = server.tnow + 2
    hist.block_sums_at(qt, 1)
    server.advance_to(server.tnow + 1)
    misses0 = hist.cache_misses
    hist.block_sums_at(qt, 1)
    assert hist.cache_misses > misses0  # advance wiped the cache


def test_fr_stage_timings_and_cache_counters(populated_server):
    server = populated_server
    qt = server.tnow + 1
    first = server.query("fr", qt=qt, rho=0.05)
    extra = first.stats.extra
    stage_keys = (
        "filter_seconds",
        "fuse_seconds",
        "fetch_seconds",
        "sweep_seconds",
        "merge_seconds",
    )
    for key in stage_keys:
        assert key in extra and extra[key] >= 0.0
    # every recorded span is also accumulated: stages nest inside the query
    assert sum(extra[key] for key in stage_keys) <= first.stats.cpu_seconds
    assert extra["cache_misses"] >= 1.0  # cold caches
    second = server.query("fr", qt=qt, rho=0.05)
    assert second.stats.extra["cache_hits"] >= 1.0  # warm caches
    assert set(first.regions) == set(second.regions)
    report = server.reliability_report()
    assert "query_cache_hits" not in report and "query_cache_misses" not in report
    assert report["histogram_cache"] == {
        "hits": server.histogram.cache_hits,
        "misses": server.histogram.cache_misses,
    }
    assert report["histogram_cache"]["hits"] >= 1
    assert set(report["query_stage_seconds"]) == {
        "filter",
        "fuse",
        "fetch",
        "sweep",
        "merge",
    }


def test_monitor_events_carry_cache_hits(populated_server):
    from repro.methods.monitor import PDRMonitor

    server = populated_server
    monitor = PDRMonitor(server, offset=1, method="fr", rho=0.05)
    first = monitor.poll()
    second = monitor.poll()  # no update in between: the filter hits cache
    assert first.cache_misses >= 1
    assert second.cache_hits >= 1
