"""Index ablation — FR refinement over the TPR-tree vs the B^x-tree.

Section 4 of the paper: "Several indexing methods have been proposed for
linear movement, which we can adopt in our framework."  We adopt the main
alternative it cites — the B^x-tree — and compare the refinement step's
answer (must be identical) and its I/O bill under both indexes.
"""

from __future__ import annotations

import pytest

from repro.core.system import PDRServer
from repro.experiments.datasets import WorldSpec, get_world
from repro.experiments.report import format_table
from repro.index.bx import BxTree
from repro.methods.fr import FRMethod
from repro.storage.buffer import BufferPool


@pytest.fixture(scope="module")
def bx_world(profile):
    """The small world plus a B^x-tree fed from the same update stream."""
    spec = WorldSpec(
        n_objects=profile.small,
        warmup=profile.warmup,
        network_grid=profile.network_grid,
        seed=11,
    )
    world = get_world(spec, profile.raster_resolution)
    server = world.server
    if not hasattr(world, "_bx_index"):
        bx_buffer = BufferPool(capacity_pages=server.buffer.capacity)
        bx = BxTree(
            server.table,
            server.config.domain,
            horizon=server.config.horizon,
            phase_length=server.config.max_update_interval // 2,
            bits=8,
            buffer_pool=bx_buffer,
        )
        # Load the current state; subsequent updates (none in benchmarks)
        # would flow through the listener interface.
        bx.bulk_load()
        server.table.add_listener(bx)
        world._bx_index = bx
    return world


def test_index_ablation_tpr_vs_bx(profile, bx_world, benchmark, capsys):
    server = bx_world.server
    bx = bx_world._bx_index
    fr_tpr = FRMethod(server.histogram, server.tree)
    fr_bx = FRMethod(server.histogram, bx)
    qts = bx_world.query_times(profile.n_queries)

    def run():
        rows = []
        for varrho in (1.0, 3.0, 5.0):
            tpr_io = bx_io = mismatch = 0.0
            for qt in qts:
                query = server.make_query(qt=qt, varrho=varrho)
                a = fr_tpr.query(query)
                b = fr_bx.query(query)
                tpr_io += a.stats.io_count
                bx_io += b.stats.io_count
                mismatch += a.regions.symmetric_difference_area(b.regions)
            n = len(qts)
            rows.append(
                {
                    "varrho": varrho,
                    "tpr_io_pages": tpr_io / n,
                    "bx_io_pages": bx_io / n,
                    "answer_mismatch_area": mismatch,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(
            format_table(
                rows,
                title="Index ablation — FR refinement I/O: TPR-tree vs B^x-tree",
            )
        )
    for row in rows:
        # The exact answer is index-independent.
        assert row["answer_mismatch_area"] == pytest.approx(0.0, abs=1e-6)
        assert row["tpr_io_pages"] > 0
        assert row["bx_io_pages"] > 0
