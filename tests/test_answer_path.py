"""The answer path: one representation from the kernel to the wire.

An answer is one ``(N, 4)`` bounds array from the kernel that emits it to
its consumer; :class:`Rect` is the value type of the API edge only.  The
contract under test: no serving path builds a ``Rect`` per rectangle,
``DensityHistogram.cell_bounds`` is ``cell_rect`` bit for bit, the wire
frame is the per-``Rect`` comprehension it replaced (now the oracle here),
and ``query_interval("fr")`` — the one exact interval path — equals the
lifted union and brute force.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PDRServer, SystemConfig
from repro.core.geometry import Rect
from repro.core.query import IntervalPDRQuery
from repro.histogram.density_histogram import DensityHistogram
from repro.histogram.filter import filter_query
from repro.methods.interval import evaluate_interval
from repro.reliability.validation import ReliabilityConfig
from repro.serving.client import ResilientClient
from repro.serving.loadtest import mount_group
from repro.serving.server import ServerThread, ServingConfig

N_OBJECTS = 120
QT = 2
VARRHO = 1.0
METHODS = ("fr", "pa", "dh-optimistic", "dh-pessimistic", "dense-cell")


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Sparse uniform objects on the paper's domain: a low relative
    threshold makes every method's answer thousands of rectangles."""
    state_dir = str(tmp_path_factory.mktemp("answer-path") / "state")
    server = PDRServer(
        SystemConfig(), expected_objects=N_OBJECTS,
        reliability=ReliabilityConfig(state_dir=state_dir, fsync=False),
    )
    gen = np.random.default_rng(5)
    server.report_batch([
        (oid, float(gen.uniform(5, 995)), float(gen.uniform(5, 995)),
         float(gen.uniform(-1, 1)), float(gen.uniform(-1, 1)))
        for oid in range(N_OBJECTS)
    ])
    yield server
    server.close()


@pytest.fixture(scope="module")
def wire(world):
    """The front door over ``world`` mounted as a group of one primary."""
    group = mount_group(world, 0, 0)
    thread = ServerThread(group, ServingConfig()).start()
    try:
        yield thread
    finally:
        thread.stop()


@pytest.fixture
def rects_built(monkeypatch):
    """Every ``Rect`` constructed anywhere in the process, as a list."""
    built = []
    checked_init = Rect.__post_init__

    def counting(self):
        built.append(self)
        checked_init(self)

    monkeypatch.setattr(Rect, "__post_init__", counting)
    return built


# ----------------------------------------------------------------------
# no Rect per rectangle on a serving path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("method", METHODS)
def test_snapshot_query_builds_no_rect(world, rects_built, method):
    result = world.query(method, qt=QT, varrho=VARRHO)
    assert len(result.regions) >= (N_OBJECTS if method == "dense-cell" else 1000)
    assert rects_built == []
    # the API edge is where the objects appear, once, on request
    assert len(list(result.regions)) == len(result.regions) == len(rects_built)


def test_interval_fr_builds_no_rect(world, rects_built):
    result = world.query_interval("fr", qt1=0, qt2=3, varrho=VARRHO)
    assert result.stats.method == "fr-interval"
    assert len(result.regions) >= 1000
    assert rects_built == []


@pytest.mark.parametrize("max_regions", [None, 0, 8])
@pytest.mark.parametrize("method", ["fr", "dh-optimistic"])
def test_wire_query_builds_no_rect(wire, rects_built, method, max_regions):
    with ResilientClient([wire.address]) as client:
        frame = client.query(
            method, qt_offset=QT, varrho=VARRHO, max_regions=max_regions
        )
    assert frame["n_regions"] >= 1000
    kept = frame["n_regions"] if max_regions is None else max_regions
    assert len(frame["regions"]) == kept
    assert rects_built == []


# ----------------------------------------------------------------------
# same frames, same order
# ----------------------------------------------------------------------
@pytest.mark.parametrize("method", ["fr", "pa", "dh-optimistic"])
def test_wire_regions_equal_the_per_rect_comprehension(world, wire, method):
    result = world.query(method, qt=QT, varrho=VARRHO)
    oracle = [[r.x1, r.y1, r.x2, r.y2] for r in result.regions]
    n = len(oracle)
    with ResilientClient([wire.address]) as client:
        for k in (None, 0, 8, n + 5):
            frame = client.query(method, qt_offset=QT, varrho=VARRHO, max_regions=k)
            assert frame["n_regions"] == n
            assert frame["regions"] == oracle[:k]
            assert frame["area"] == result.area()
    # the encoder prints the same digits for either representation
    assert json.dumps(result.regions.bounds[:8].tolist()) == json.dumps(oracle[:8])


def test_dh_answers_keep_cell_rect_order(world):
    hist = world.histogram
    filtered = filter_query(hist, world.make_query(qt=QT, varrho=VARRHO))

    def cells(mask):
        return [hist.cell_rect(int(i), int(j)).as_tuple() for i, j in zip(*np.nonzero(mask))]

    optimistic = world.query("dh-optimistic", qt=QT, varrho=VARRHO).regions
    pessimistic = world.query("dh-pessimistic", qt=QT, varrho=VARRHO).regions
    assert filtered.accepted.any() and filtered.candidate.any()
    assert [tuple(row) for row in pessimistic.bounds.tolist()] == cells(filtered.accepted)
    assert [tuple(row) for row in optimistic.bounds.tolist()] == (
        cells(filtered.accepted) + cells(filtered.candidate)
    )
    # distinct cells: the O(N) area is the rasterised one
    assert optimistic.area() == pytest.approx(
        optimistic.union(optimistic).area(), rel=1e-12
    )


@given(
    m=st.integers(1, 9),
    x0=st.floats(-1e3, 1e3),
    y0=st.floats(-1e3, 1e3),
    width=st.floats(0.5, 2e3),
    height=st.floats(0.5, 2e3),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_cell_bounds_is_cell_rect_bit_for_bit(m, x0, y0, width, height, data):
    hist = DensityHistogram(Rect(x0, y0, x0 + width, y0 + height), m, horizon=0)
    flat = data.draw(st.lists(st.booleans(), min_size=m * m, max_size=m * m))
    mask = np.array(flat, dtype=bool).reshape(m, m)
    bounds = hist.cell_bounds(mask)
    assert bounds.dtype == np.float64 and bounds.shape == (int(mask.sum()), 4)
    expected = [
        hist.cell_rect(int(i), int(j)).as_tuple() for i, j in zip(*np.nonzero(mask))
    ]
    assert bounds.tobytes() == np.array(expected, dtype=float).reshape(-1, 4).tobytes()


# ----------------------------------------------------------------------
# one exact interval path
# ----------------------------------------------------------------------
def test_interval_fr_equals_the_lifted_union_and_brute_force(world):
    base = world.make_query(qt=0, varrho=VARRHO)
    interval = IntervalPDRQuery(rho=base.rho, l=base.l, qt1=0, qt2=2)
    got = world.query_interval("fr", qt1=0, qt2=2, varrho=VARRHO)
    union = evaluate_interval(lambda s: world.evaluate("fr", s), interval)
    brute = evaluate_interval(lambda s: world.evaluate("bruteforce", s), interval)
    assert got.regions.symmetric_difference_area(union.regions) == 0.0
    assert got.regions.symmetric_difference_area(brute.regions) == 0.0
    # one shared traversal: never more page reads than one per snapshot
    assert got.stats.io_count <= union.stats.io_count
