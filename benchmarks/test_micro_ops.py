"""Micro-benchmarks of the core operations behind the figures.

These use pytest-benchmark's timing loop on individual operations (one
query, one location update, one refinement sweep) against the shared warm
medium world, complementing the figure-level tables with per-op numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.geometry import Rect
from repro.histogram.answers import dh_optimistic
from repro.sweep.plane_sweep import refine_cell


@pytest.fixture(scope="module")
def query(medium_world):
    server = medium_world.server
    return server.make_query(qt=server.tnow + 10, varrho=2.0)


def test_bench_pa_query(medium_world, query, benchmark):
    server = medium_world.server
    result = benchmark.pedantic(
        server.pa.query, args=(query,), rounds=3, iterations=1, warmup_rounds=1
    )
    assert result.stats.method == "pa"


def test_bench_dh_filter_query(medium_world, query, benchmark):
    server = medium_world.server
    result = benchmark.pedantic(
        dh_optimistic, args=(server.histogram, query), rounds=3, iterations=1,
        warmup_rounds=1,
    )
    assert result.stats.method == "dh-optimistic"


def test_bench_fr_query(medium_world, query, benchmark):
    server = medium_world.server
    result = benchmark.pedantic(
        server.evaluate, args=("fr", query), rounds=1, iterations=1
    )
    assert result.stats.method == "fr"


def test_bench_location_update(medium_world, benchmark):
    """One full report: delete + insert across histogram and PA (the
    TPR-tree only marks itself stale; its next read rebuilds it)."""
    server = medium_world.server
    oid = 999_999_999
    gen = np.random.default_rng(0)
    server.report(oid, 500.0, 500.0, 0.5, 0.5)  # ensure delete path runs

    def one_report():
        x, y = gen.uniform(100, 900, size=2)
        server.report(oid, float(x), float(y), 0.5, -0.5)

    benchmark.pedantic(one_report, rounds=20, iterations=1)
    server.table.retire(oid)  # leave the shared world unchanged


def test_bench_tpr_range_query(medium_world, benchmark):
    server = medium_world.server
    rect = Rect(450.0, 450.0, 550.0, 550.0)

    def run():
        return server.tree.range_query(rect, server.tnow, charge_io=False)

    hits = benchmark.pedantic(run, rounds=10, iterations=1)
    assert isinstance(hits, list)


def test_bench_refine_cell_sweep(benchmark):
    """The plane-sweep refinement on a dense synthetic candidate cell."""
    gen = np.random.default_rng(1)
    positions = [tuple(gen.uniform(0, 40, size=2)) for _ in range(400)]
    cell = Rect(10.0, 10.0, 30.0, 30.0)

    region = benchmark.pedantic(
        refine_cell, args=(positions, cell, 10.0, 12.0), rounds=5, iterations=1
    )
    assert region.bounding_box() is None or cell.contains_rect(
        region.bounding_box()
    )
