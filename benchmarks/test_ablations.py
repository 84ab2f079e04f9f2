"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. **Multiple polynomials vs one global polynomial** (Section 6.4): a single
   expansion cannot track a skewed metro density surface; the g x g tiling
   is what makes PA accurate.
2. **Branch-and-bound vs dense-grid evaluation** (Section 6.3): the paper's
   "trivial approach" evaluates the polynomial on every cell of an
   m_d x m_d grid; B&B bounds prune most of the plane instead.
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


def test_ablation_bnb_vs_dense_grid(profile, ablation_world, benchmark, capsys):
    """B&B evaluation vs the paper's 'trivial' dense m_d x m_d evaluation."""
    server = ablation_world.server
    qt = server.tnow + 5
    md = server.config.evaluation_grid

    def run():
        rows = []
        for varrho in (1.0, 3.0, 5.0):
            query = server.make_query(qt=qt, varrho=varrho)
            t0 = time.perf_counter()
            result = server.pa.query(query)
            bnb_s = time.perf_counter() - t0
            surface = server.pa.surface_at(qt)
            t0 = time.perf_counter()
            values = surface.density_grid(md)
            dense_cells = int((values >= query.rho).sum())
            grid_s = time.perf_counter() - t0
            rows.append(
                {
                    "varrho": varrho,
                    "bnb_s": bnb_s,
                    "bnb_nodes": result.stats.bnb_nodes,
                    "grid_s": grid_s,
                    "grid_evaluations": md * md,
                    "grid_dense_cells": dense_cells,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(
            format_table(
                rows,
                title=f"Ablation — branch-and-bound vs dense {md}x{md} evaluation",
            )
        )
    for row in rows:
        # B&B touches a small fraction of the trivial method's evaluations.
        assert row["bnb_nodes"] < 0.5 * row["grid_evaluations"]
    # And pruning strengthens with the threshold.
    assert rows[-1]["bnb_nodes"] < rows[0]["bnb_nodes"]


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
