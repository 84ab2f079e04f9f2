"""FR hands the band kernel only the objects its strips can reach.

One index call fetches each band's ``l/2``-expanded hull; of what it
returns, :meth:`FRMethod.refine` keeps the objects whose column lies within
``ceil(l / 2 / l_c) + 1`` cells of a candidate cell of their band's row.
The paper's RefineQuery (and the oracle, ``refine_cell`` per strip) fetches
the window ``x1 - l/2 <= px <= x2 + l/2`` of each strip instead, and an
object is active somewhere in a strip only if ``px - l/2 < x2`` and ``px +
l/2 > x1``.  The properties:

* the kernel's answer is ``==`` to ``refine_bands`` run on the unpruned
  band-hull batch, with the same segment and event counts;
* every object within ``l/2`` of a strip of its band reaches the kernel;
* no object beyond reach of every strip of its band does.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bench.harness import build_server
from bench.worlds import road_inputs, uniform_inputs
from repro.core.geometry import Rect
from repro.histogram.density_histogram import DensityHistogram
from repro.index.tree import TPRTree
from repro.methods import fr as fr_module
from repro.methods.fr import FRMethod
from repro.motion.table import ObjectTable
from repro.sweep.band_sweep import refine_bands
from tests.conftest import small_pages


@contextmanager
def kernel_calls(tree):
    """Record every ``(batch, l, min_count, result)`` of the band kernel
    and the ``(rects, qts)`` of every fetch from ``tree``."""
    calls = {"kernel": [], "fetch": []}

    def kernel(batch, l, min_count):
        result = refine_bands(batch, l, min_count)
        calls["kernel"].append((batch, l, min_count, result))
        return result

    fetch = tree.range_positions_batch

    def spy_fetch(rects, qts, *args, **kwargs):
        calls["fetch"].append((rects, qts))
        return fetch(rects, qts, *args, **kwargs)

    with mock.patch.object(fr_module, "refine_bands", kernel), mock.patch.object(
        tree, "range_positions_batch", spy_fetch
    ):
        yield calls


def unpruned(batch, tree, rects, qts, domain):
    """The band-hull batch before reach pruning: every in-domain object the
    fetch returned (fetched again, without charging its pages)."""
    offsets, px, py = tree.range_positions_batch(rects, qts, charge_io=False)
    inside = (px >= domain.x1) & (px < domain.x2) & (py >= domain.y1) & (py < domain.y2)
    return batch._replace(
        offsets=np.concatenate(([0], np.cumsum(inside)))[offsets],
        px=px[inside],
        py=py[inside],
    )


def pair_bands(batch):
    return np.repeat(np.arange(batch.y1.size), np.diff(batch.offsets))


def in_some_window(batch, l):
    """Per object of ``batch``: within ``l/2`` of a strip of its band, the
    strict condition for being active in one of the strip's segments."""
    half = l / 2.0
    band = pair_bands(batch)
    hit = np.zeros(batch.px.size, dtype=bool)
    for s in range(batch.strip_x1.size):
        mine = band == batch.strip_band[s]
        hit |= mine & (batch.px - half < batch.strip_x2[s]) & (batch.px + half > batch.strip_x1[s])
    return hit


def assert_pruning_exact(calls, tree, hist):
    """Each kernel call equals the kernel on the unpruned batch, keeps every
    object of a strip's window, and drops every object beyond reach."""
    assert len(calls["kernel"]) == len(calls["fetch"]) == 1
    (batch, l, min_count, got), (rects, qts) = calls["kernel"][0], calls["fetch"][0]
    full = unpruned(batch, tree, rects, qts, hist.domain)
    want = refine_bands(full, l, min_count)
    assert got.bounds.shape == want.bounds.shape
    assert (got.bounds == want.bounds).all()
    assert np.array_equal(got.band_of_rect, want.band_of_rect)
    assert (got.segments, got.events) == (want.segments, want.events)
    # Pruning only removes: the kept objects of each band are a sub-multiset
    # holding every object of a strip's window.
    kept_band, full_band = pair_bands(batch), pair_bands(full)
    kept_window, full_window = in_some_window(batch, l), in_some_window(full, l)
    for b in range(batch.y1.size):
        kept, fetched = kept_band == b, full_band == b
        assert kept.sum() <= fetched.sum()
        kept &= kept_window
        fetched &= full_window
        assert sorted(zip(batch.px[kept], batch.py[kept])) == sorted(
            zip(full.px[fetched], full.py[fetched])
        )
    # Nothing beyond reach: every kept object's column lies within the
    # reach of a candidate cell (strip columns c1..c2) of its band.
    reach = math.ceil(l / 2.0 / hist.cell_edge) + 1
    x0, lx = hist.domain.x1, hist.cell_edge
    column = np.floor((batch.px - x0) / lx)
    c1 = np.round((batch.strip_x1 - x0) / lx)
    c2 = np.round((batch.strip_x2 - x0) / lx) - 1
    near = np.zeros(batch.px.size, dtype=bool)
    for s in range(c1.size):
        mine = kept_band == batch.strip_band[s]
        near |= mine & (column >= c1[s] - reach) & (column <= c2[s] + reach)
    assert near.all()
    return batch, full


# ----------------------------------------------------------------------
# the bench worlds' FR lists and an interval FR query
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=["road", "uniform"])
def bench_world(request):
    inputs = road_inputs(2000, 1) if request.param == "road" else uniform_inputs(1000, 1)
    return build_server(inputs)[0], inputs


def test_bench_fr_list_prunes_and_answers_as_the_unpruned_batch(bench_world):
    server, inputs = bench_world
    dropped = 0
    for l, varrho, offset in inputs.fr_queries:
        with kernel_calls(server.tree) as calls:
            result = server.query("fr", qt=server.tnow + offset, l=l, varrho=varrho)
        batch, full = assert_pruning_exact(calls, server.tree, server.histogram)
        extra = result.stats.extra
        assert extra["refine_objects"] == batch.px.size
        assert result.stats.objects_examined >= full.px.size >= batch.px.size
        dropped += full.px.size - batch.px.size
    assert dropped > 0


def test_interval_fr_prunes_and_answers_as_the_unpruned_batch():
    server, _seconds = build_server(road_inputs(2000, 1))
    with kernel_calls(server.tree) as calls:
        result = server.query_interval(
            "fr", server.tnow + 3, server.tnow + 9, l=30.0, varrho=2.0
        )
    batch, full = assert_pruning_exact(calls, server.tree, server.histogram)
    assert result.stats.extra["refine_objects"] == batch.px.size < full.px.size
    assert len(set(calls["fetch"][0][1].tolist())) > 1  # several timestamps


# ----------------------------------------------------------------------
# edges: strip gaps of exactly l, objects on x1 - l/2 and x2 + l/2,
# the first and the last column
# ----------------------------------------------------------------------
_M = 20
_EDGE = 5.0
_DOMAIN = Rect(0.0, 0.0, _M * _EDGE, _M * _EDGE)


@st.composite
def reach_case(draw):
    """A candidate mask of rows with one or two strips — the second, if
    any, exactly ``l`` past the first or far enough that objects between
    them are out of reach — and objects on the strips' window edges, on the
    first and last columns and on a quarter-cell lattice."""
    l = draw(st.sampled_from([10.0, 15.0, 30.0, 60.0]))
    gap = int(l / _EDGE) * draw(st.sampled_from([1, 1, 2])) + draw(st.sampled_from([0, 0, 3]))
    mask = np.zeros((_M, _M), dtype=bool)
    edges = []
    for row in draw(st.lists(st.integers(0, _M - 1), min_size=1, max_size=3, unique=True)):
        start = draw(st.integers(0, _M - 1))
        width = draw(st.integers(1, 4))
        spans = [(start, min(start + width, _M))]
        second = spans[0][1] + gap
        if draw(st.booleans()) and second < _M:
            spans.append((second, min(second + draw(st.integers(1, 3)), _M)))
        for a, b in spans:
            mask[a:b, row] = True
            edges += [(a * _EDGE - l / 2.0, row), (b * _EDGE + l / 2.0, row)]
    lattice = st.integers(0, 4 * _M - 1).map(lambda k: k * _EDGE / 4.0)
    rows = st.sampled_from([row for _x, row in edges])
    points = []
    for x, row in edges:
        points.append((x, row * _EDGE + draw(st.sampled_from([-l / 2.0, 0.0, 2.5, l / 2.0]))))
    for x in (0.0, _EDGE / 2.0, (_M - 1) * _EDGE, _M * _EDGE - 0.25):
        points.append((x, draw(rows) * _EDGE + draw(st.sampled_from([0.0, 2.5]))))
    points += draw(st.lists(st.tuples(lattice, lattice), max_size=40))
    extra = draw(st.lists(st.tuples(lattice, rows.map(lambda r: r * _EDGE + 1.25)), max_size=40))
    return l, mask, points + extra, draw(st.integers(0, 4))


@settings(max_examples=150, deadline=None)
@given(case=reach_case())
def test_pruned_kernel_equals_the_unpruned_kernel_on_window_edges(case):
    l, mask, points, count = case
    table = ObjectTable()
    hist = DensityHistogram(_DOMAIN, m=_M, horizon=2)
    with small_pages(8):
        tree = TPRTree(table, horizon=2)
    table.add_listener(hist)
    table.add_listener(tree)
    inside = [(x, y) for x, y in points if _DOMAIN.contains_point(x, y)]
    table.report_batch([(oid, x, y, 0.0, 0.0) for oid, (x, y) in enumerate(inside)])
    fr = FRMethod(hist, tree)
    with kernel_calls(tree) as calls:
        refined = fr.refine([(0, mask)], l, float(count))
    batch, _full = assert_pruning_exact(calls, tree, hist)
    assert refined.extra["refine_objects"] == batch.px.size
    assert refined.objects_examined >= batch.px.size
