"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. **Multiple polynomials vs one global polynomial** (Section 6.4): a single
   expansion cannot track a skewed metro density surface; the g x g tiling
   is what makes PA accurate.
2. **Tile bound vs dense-grid evaluation** (Section 6.3): the paper's
   "trivial approach" evaluates the polynomial on every cell of the
   evaluation grid; one bracket per tile decides most tiles outright and
   only the undecided ones are evaluated.
3. **Filter-step effectiveness** (Section 5.2): accepts + rejects resolve
   the vast majority of cells without touching the TPR-tree, which is what
   keeps the exact method viable at all.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.regions import RegionSet
from repro.core.geometry import Rect
from repro.experiments.datasets import WorldSpec, get_world
from repro.experiments.report import format_table
from repro.histogram.filter import filter_query


@pytest.fixture(scope="module")
def ablation_world(profile):
    spec = WorldSpec(
        n_objects=profile.small,
        warmup=profile.warmup,
        network_grid=profile.network_grid,
        extra_pa=((1, 5, 30.0),),  # the single-global-polynomial ablation
    )
    return get_world(spec, profile.raster_resolution)


def test_ablation_single_vs_multi_polynomial(profile, ablation_world, benchmark, capsys):
    """One global polynomial vs the g x g grid, same degree and memory class."""
    server = ablation_world.server
    qt = server.tnow + 5
    query = server.make_query(qt=qt, varrho=2.0)
    exact = ablation_world.exact_answer(query).regions

    def run():
        rows = []
        for label, pa in (
            ("single (g=1, k=5)", ablation_world.pa_for(30.0, g=1, k=5)),
            (f"grid (g={server.pa.spec.g}, k={server.pa.spec.k})", server.pa),
        ):
            result = pa.query(query)
            acc = ablation_world.raster.accuracy(exact, result.regions)
            rows.append(
                {
                    "config": label,
                    "memory_mb": pa.memory_bytes() / 1e6,
                    "r_fp_pct": 100 * acc.r_fp,
                    "r_fn_pct": 100 * acc.r_fn,
                    "jaccard": acc.jaccard,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_table(rows, title="Ablation — single global polynomial vs g x g grid"))
    single, grid = rows
    # The tiling is the decisive design choice: far better agreement.
    assert grid["jaccard"] > single["jaccard"]
    assert grid["r_fn_pct"] < single["r_fn_pct"] + 1e-9


def _best_of(fn, rounds=5):
    best, out = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def test_ablation_bnb_vs_dense_grid(profile, ablation_world, benchmark, capsys):
    """Tile bound + dense survivors vs evaluating all g^2 tiles densely.

    The paper's 'trivial approach' evaluates the polynomial on every cell
    of the evaluation grid.  PA brackets each tile once and evaluates only
    the undecided ones on the same leaf grid, so its evaluations are a
    subset of the trivial method's — the bound is what makes them fall as
    the threshold rises.
    """
    server = ablation_world.server
    qt = server.tnow + 5
    md = server.config.evaluation_grid
    surface = server.pa.surface_at(qt)

    def run():
        rows = []
        for varrho in (1.0, 3.0, 5.0):
            query = server.make_query(qt=qt, varrho=varrho)
            bnb_s, (_regions, bnb) = _best_of(
                lambda: surface.dense_regions(query.rho, md=md)
            )
            leaf_grid = bnb.mask.shape[0]
            grid_s, dense_cells = _best_of(
                lambda: int((surface.density_grid(leaf_grid) >= query.rho).sum())
            )
            rows.append(
                {
                    "varrho": varrho,
                    "bnb_s": bnb_s,
                    "tiles_evaluated": bnb.tiles_evaluated,
                    "bnb_evaluations": bnb.resolved_at_leaf,
                    "grid_s": grid_s,
                    "grid_evaluations": leaf_grid * leaf_grid,
                    "grid_dense_cells": dense_cells,
                    "bnb_dense_cells": int(bnb.mask.sum()),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(
            format_table(
                rows,
                title=(
                    "Ablation — tile bound + dense survivors vs dense "
                    f"evaluation of every tile (m_d = {md})"
                ),
            )
        )
    for row in rows:
        # Strictly fewer evaluations than the full leaf grid at every
        # threshold, and no slower in wall-clock (best of five each; the
        # margin absorbs timer noise at sub-millisecond scale).
        assert row["bnb_evaluations"] < row["grid_evaluations"]
        assert row["bnb_dense_cells"] == row["grid_dense_cells"]  # same answer
        assert row["bnb_s"] <= 1.25 * row["grid_s"]
    # Pruning strengthens with the threshold.
    evaluations = [row["bnb_evaluations"] for row in rows]
    assert evaluations == sorted(evaluations, reverse=True)
    assert evaluations[-1] < evaluations[0]


def test_ablation_interval_fr(profile, ablation_world, benchmark, capsys):
    """Naive per-snapshot union vs interval-level filtering (Definition 5).

    The optimised evaluator accepts a cell once for the whole union and
    refines candidates only at the timestamps that individually need it.
    """
    from repro.core.query import IntervalPDRQuery
    from repro.methods.fr import FRMethod
    from repro.methods.interval import evaluate_interval, evaluate_interval_fr

    server = ablation_world.server
    fr = FRMethod(server.histogram, server.tree)
    qt1 = server.tnow
    qt2 = server.tnow + 6

    def run():
        rows = []
        for varrho in (1.0, 3.0):
            base = server.make_query(qt=qt1, varrho=varrho)
            query = IntervalPDRQuery(rho=base.rho, l=base.l, qt1=qt1, qt2=qt2)
            naive = evaluate_interval(lambda s: fr.query(s), query)
            optimized = evaluate_interval_fr(fr, query)
            rows.append(
                {
                    "varrho": varrho,
                    "interval": f"[{qt1}, {qt2}]",
                    "naive_objects": naive.stats.objects_examined,
                    "optimized_objects": optimized.stats.objects_examined,
                    "naive_io": naive.stats.io_count,
                    "optimized_io": optimized.stats.io_count,
                    "mismatch_area": naive.regions.symmetric_difference_area(
                        optimized.regions
                    ),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(
            format_table(
                rows, title="Ablation — naive vs interval-filtered exact union"
            )
        )
    for row in rows:
        assert row["mismatch_area"] == pytest.approx(0.0, abs=1e-6)
        assert row["optimized_objects"] <= row["naive_objects"]


def test_ablation_filter_step_effectiveness(profile, medium_world, benchmark, capsys):
    """Fraction of cells the filter resolves without index I/O."""
    server = medium_world.server
    qt = server.tnow + 5

    def run():
        rows = []
        for varrho in (1.0, 2.0, 3.0, 4.0, 5.0):
            query = server.make_query(qt=qt, varrho=varrho)
            result = filter_query(server.histogram, query)
            total = server.histogram.m ** 2
            resolved = result.accepted_count + result.rejected_count
            rows.append(
                {
                    "varrho": varrho,
                    "accepted": result.accepted_count,
                    "rejected": result.rejected_count,
                    "candidates": result.candidate_count,
                    "resolved_pct": 100.0 * resolved / total,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(
            format_table(
                rows,
                title="Ablation — filter step: cells resolved without refinement",
            )
        )
    for row in rows:
        # Without the filter, FR would refine all m^2 cells; it resolves
        # the overwhelming majority up front.
        assert row["resolved_pct"] > 80.0
