"""Figure-level scientific properties of the paper, checked at tiny scale.

These tests assert the *shape* claims of the evaluation section on small
deterministic worlds: accuracy orderings, pruning behaviour, scalability
direction.  Timing itself is not asserted (too flaky for CI); deterministic
proxies (node counts, I/O counts, error ratios) are.
"""

from __future__ import annotations

import pytest

from repro.experiments.datasets import WorldSpec, build_world
from repro.histogram.answers import dh_optimistic, dh_pessimistic

VARRHOS = (1.0, 2.0, 3.0, 4.0, 5.0)


@pytest.fixture(scope="module")
def world():
    spec = WorldSpec(n_objects=400, warmup=6, network_grid=12, seed=3)
    return build_world(spec, raster_resolution=512)


@pytest.fixture(scope="module")
def bigger_world():
    spec = WorldSpec(n_objects=1200, warmup=6, network_grid=12, seed=3)
    return build_world(spec, raster_resolution=512)


def _accuracies(world, varrho):
    server = world.server
    qt = server.tnow + 3
    query = server.make_query(qt=qt, varrho=varrho)
    exact = world.exact_answer(query).regions
    pa = server.pa.query(query)
    opt = dh_optimistic(server.histogram, query)
    pess = dh_pessimistic(server.histogram, query)
    return {
        "pa": world.raster.accuracy(exact, pa.regions),
        "opt": world.raster.accuracy(exact, opt.regions),
        "pess": world.raster.accuracy(exact, pess.regions),
        "pa_stats": pa.stats,
    }


class TestFigure8Properties:
    def test_dh_guarantees(self, world):
        for varrho in (2.0, 4.0):
            acc = _accuracies(world, varrho)
            assert acc["opt"].r_fn == pytest.approx(0.0, abs=1e-9)
            assert acc["pess"].r_fp == pytest.approx(0.0, abs=1e-9)

    def test_pa_beats_dh_on_both_ratios(self, world):
        """Figure 8(a,b): PA error below the corresponding DH error."""
        pa_fp = pa_fn = dh_fp = dh_fn = 0.0
        for varrho in (2.0, 3.0):
            acc = _accuracies(world, varrho)
            pa_fp += acc["pa"].r_fp
            pa_fn += acc["pa"].r_fn
            dh_fp += acc["opt"].r_fp
            dh_fn += acc["pess"].r_fn
        assert pa_fp < dh_fp
        assert pa_fn < dh_fn

    def test_dh_error_grows_with_threshold(self, world):
        """Figure 8(a,b): shrinking area(D) inflates the DH error ratios."""
        low = _accuracies(world, 1.0)
        high = _accuracies(world, 5.0)
        assert high["opt"].r_fp > low["opt"].r_fp
        assert high["pess"].r_fn > low["pess"].r_fn

    def test_pa_memory_improves_accuracy(self, world):
        """Figure 8(c,d) direction: a richer PA config cannot be much worse.

        Compare the primary (g=20, k=5) against a deliberately starved
        (g=5, k=2-equivalent) surface built from the same coefficients is
        not possible post-hoc, so we check against the analytical bound:
        a degree-0-style baseline (the domain-average density) is beaten by
        the maintained surface on Jaccard.
        """
        server = world.server
        qt = server.tnow + 3
        query = server.make_query(qt=qt, varrho=2.0)
        exact = world.exact_answer(query).regions
        pa = server.pa.query(query).regions
        jacc_pa = world.raster.accuracy(exact, pa).jaccard
        # Trivial predictor: everything dense (varrho <= 1 on average) or
        # nothing dense; its Jaccard is area-ratio bounded.
        from repro.core.regions import RegionSet

        all_region = RegionSet([server.config.domain])
        jacc_all = world.raster.accuracy(exact, all_region).jaccard
        assert jacc_pa > jacc_all


class TestFigure9Properties:
    def test_bnb_prunes_more_at_higher_threshold(self, world):
        """Figure 9(a) mechanism: higher threshold => fewer B&B nodes."""
        server = world.server
        qt = server.tnow + 3
        nodes = []
        for varrho in (1.0, 5.0):
            query = server.make_query(qt=qt, varrho=varrho)
            nodes.append(server.pa.query(query).stats.bnb_nodes)
        assert nodes[1] < nodes[0]

    def test_pa_update_costlier_than_dh(self, world):
        """Figure 9(b): PA maintenance costs more per update than DH."""
        assert (
            world.pa_timer.mean_seconds_per_update
            > world.dh_timer.mean_seconds_per_update
        )


class TestFigure10Properties:
    def test_fr_io_grows_with_dataset(self, world, bigger_world):
        """Figure 10(b): FR cost scales with N (I/O count proxy)."""
        costs = []
        for w in (world, bigger_world):
            server = w.server
            query = server.make_query(qt=server.tnow + 3, varrho=2.0)
            result = server.evaluate("fr", query)
            costs.append(result.stats.io_count)
        assert costs[1] > costs[0]

    def test_pa_work_insensitive_to_dataset(self, world, bigger_world):
        """Figure 10(b): PA work depends on the surface, not on N."""
        nodes = []
        for w in (world, bigger_world):
            server = w.server
            query = server.make_query(qt=server.tnow + 3, varrho=2.0)
            nodes.append(server.pa.query(query).stats.bnb_nodes)
        # Within a factor of ~3 while N tripled (regions differ slightly).
        assert nodes[1] < 3 * nodes[0]

    def test_fr_total_cost_dominated_by_io(self, bigger_world):
        """Figure 10(a): FR pays mostly I/O; PA pays none."""
        server = bigger_world.server
        query = server.make_query(qt=server.tnow + 3, varrho=2.0)
        fr = server.evaluate("fr", query)
        pa = server.pa.query(query)
        assert fr.stats.io_seconds > fr.stats.cpu_seconds
        assert pa.stats.io_seconds == 0.0
        assert pa.stats.total_seconds < fr.stats.total_seconds
